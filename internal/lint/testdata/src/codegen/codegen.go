// Package codegen is the fixture for the codegen conformance analyzer:
// HotKernel carries one bounds check surviving in an innermost loop and
// one call to bigHelper, a must-inline helper kept out of line;
// tinyHelper inlines and satisfies its entry. The data-dependent gather
// loop carries an audited bce-ok pragma and must stay silent. Split runs
// two loops where its policy entry records one.
package codegen // want "codegen policy names hot function vanished which no longer exists" // want "codegen policy names must-inline helper gone which no longer exists"

var sinkFloat float64

// HotKernel is the policy's hot function.
func HotKernel(xs, ys []float64, idx []int32, n int) {
	var s float64
	for i := 0; i < n; i++ {
		s += xs[i] // want "hot kernel HotKernel: bounds check survives in an innermost loop"
	}

	for i := 0; i < n && i < len(xs); i++ {
		s += ys[idx[i]] //lint:bce-ok data-dependent gather through the edge index; no length relation is provable
	}
	sinkFloat = s + tinyHelper(s, s) + bigHelper(3) // want "must-inline helper fixture/codegen.bigHelper is called, not inlined, in fixture/codegen.HotKernel"
}

// Split is a one-loop kernel split into two: each sum keeps its bits,
// but x is read twice, so the loop count its policy entry records (1)
// no longer holds.
func Split(x []float64) (float64, float64) { // want "hot function Split has 2 innermost loops, codegenPackages records 1"
	var s, q float64
	for _, v := range x {
		s += v
	}
	for _, v := range x {
		q += v * v
	}
	return s, q
}

// tinyHelper inlines; its must-inline entry is satisfied.
func tinyHelper(a, b float64) float64 { return a*b + b }

// bigHelper is kept out of line, so its call survives in the archive.
//
//go:noinline
func bigHelper(n int) float64 { return 1.5 * float64(n) }
