// Package pragmahygiene is a lint fixture: every pragma defect is a
// finding (expected findings are asserted by TestPragmaHygiene).
package pragmahygiene

//lint:frobnicate this key does not exist
func unknownKey() {}

var sinkFloat float64

// Kernel is a hot function of the codegen policy. A pragma without a
// reason suppresses nothing, so the bounds check under it is still
// reported.
func Kernel(xs []float64, n int) {
	var s float64
	for i := 0; i < n; i++ {
		//lint:bce-ok
		s += xs[i]
	}
	sinkFloat = s
}

//lint:bce-ok this pragma sits on a line that has no finding
func unusedPragma() {}
