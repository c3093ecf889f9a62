package dist

// Cost formulas for the measured phase profiler. Every Begin/End span
// in this package charges its flops and bytes through these functions
// (tests read the charges back from the profiler's report), so the
// counts the profiler reports cannot drift from the formulas the
// roofline accounting and the virtual-machine model assume.

// haloWireBytes is the wire traffic of one ghost scatter: each send and
// receive index list crossing this rank's boundary moves B doublewords
// per block row, counted in both directions.
func (h *Halo) haloWireBytes() int64 {
	var wire int64
	for pi := range h.peers {
		wire += int64(len(h.sendIdx[pi])+len(h.recvIdx[pi])) * int64(h.b) * 8
	}
	return wire
}

// haloPackBytes is the local memory traffic of packing the outgoing
// boundary values into the staging buffers: one read of the source rows
// and one write of the staging copy per sent block row.
func (h *Halo) haloPackBytes() int64 {
	var rows int64
	for pi := range h.peers {
		rows += int64(len(h.sendIdx[pi]))
	}
	return rows * int64(h.b) * 16
}

// haloUnpackBytes is the local memory traffic of unpacking received
// payloads into the ghost region: one read of the payload and one write
// of the ghost rows per received block row.
func (h *Halo) haloUnpackBytes() int64 {
	var rows int64
	for pi := range h.peers {
		rows += int64(len(h.recvIdx[pi]))
	}
	return rows * int64(h.b) * 16
}
