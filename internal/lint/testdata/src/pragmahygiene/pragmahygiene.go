// Package pragmahygiene is a lint fixture: every pragma defect is a
// finding (expected findings are asserted by TestPragmaHygiene).
package pragmahygiene

//lint:frobnicate this key does not exist
func unknownKey() {}

func missingReason(n int) {
	if n < 0 {
		//lint:panic-ok
		panic("negative")
	}
}

//lint:overlap-ok this pragma sits on a line that has no finding
func unusedPragma() {}
