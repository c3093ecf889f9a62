package mpi

// Tag classifies point-to-point messages. Tags are a protocol contract,
// not free-form integers: a send posted with one tag and matched by a
// receive expecting another fails that receive with a tag-mismatch
// error and poisons the pair's ordered stream (see Recv), so every tag
// in the repository lives in the registry below; tests may convert
// freely.
type Tag int

// The tag registry: one constant per wire protocol. Each tag is used by
// at least one send site and one receive site (or flows into a plan
// constructor that posts both sides), since a one-sided tag is how
// communicator pairs get poisoned.
const (
	// TagPlan carries halo plan negotiation: the need-lists ranks
	// exchange at partition setup (dist.negotiateHalo).
	TagPlan Tag = 1 + iota
	// TagHalo carries ghost scatter payloads: the packed boundary
	// values of the persistent halo exchange (dist.Halo).
	TagHalo
)
