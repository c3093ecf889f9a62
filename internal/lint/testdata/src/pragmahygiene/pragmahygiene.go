// Package pragmahygiene is a lint fixture: every pragma defect is a
// finding (expected findings are asserted by TestPragmaHygiene).
package pragmahygiene

import "petscfun3d/internal/mpi"

//lint:frobnicate this key does not exist
func unknownKey() {}

// missingReason: a pragma without a reason suppresses nothing, so the
// blocking Send under it is still reported.
func missingReason(c *mpi.Comm, tag mpi.Tag, buf []float64) {
	req := c.IRecv(1, tag)
	//lint:overlap-ok
	c.Send(1, tag, buf)
	_, _ = req.Wait()
}

//lint:overlap-ok this pragma sits on a line that has no finding
func unusedPragma() {}
