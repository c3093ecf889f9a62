// Package hotalloc is a lint fixture: allocation discipline in a hot
// package. Lines carry want-comment expectations.
package hotalloc

func loops(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)                             // want "append growth in a hot loop body"
		buf := make([]float64, n)                        // want "make in a hot loop body"
		m := map[int]bool{i: true}                       // want "map literal allocated in a hot loop body"
		f := func() int { return i + len(buf) + len(m) } // want "closure allocated in a hot loop body"
		_ = f()
	}
	for range out {
		_ = make([]int, 1) // want "make in a hot loop body"
	}
	return out
}

func setupIsFine(n int) []int {
	pre := make([]int, 0, n) // allocation outside any loop: fine
	for i := 0; i < n; i++ {
		pre = append(pre, i) //lint:alloc-ok fixture: grown once at setup, exercised by the suppression test
	}
	return pre
}

func literalLoopIsItsOwnFunction(n int) func() []int {
	// The literal's loop belongs to the literal, not to this function.
	return func() []int {
		var out []int
		for i := 0; i < n; i++ {
			out = append(out, i) // want "append growth in a hot loop body"
		}
		return out
	}
}

// workspace mirrors a solver that keeps its buffers on a receiver: the
// one fitting allocation sits outside every loop, and a make inside the
// method's restart or iteration loops is still a finding.
type workspace struct{ basis, w []float64 }

func (ws *workspace) fit(n, m int) {
	if len(ws.w) != n {
		ws.basis, ws.w = make([]float64, n*m), make([]float64, n) // outside any loop: fine
	}
}

func (ws *workspace) solve(n, m, restarts int) {
	ws.fit(n, m)
	for cycle := 0; cycle < restarts; cycle++ {
		r := make([]float64, n) // want "make in a hot loop body"
		for j := 0; j < m; j++ {
			ws.w = make([]float64, n) // want "make in a hot loop body"
			copy(ws.basis[j*n:], r)
		}
	}
}
