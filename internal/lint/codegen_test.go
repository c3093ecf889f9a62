package lint

import "testing"

// TestReachesPanic pins how a conditional branch is recognized as a
// bounds check on objdump text: by its taken path, by its fall-through
// path, through an unconditional jump, and not when another call or a
// branch comes first.
func TestReachesPanic(t *testing.T) {
	syms := parseObjdump(`TEXT pkg.f(SB) /src/f.go
  f.go:3	0x10	4839c8		CMPQ CX, AX
  f.go:3	0x13	7310		JAE 0x25
  f.go:4	0x15	7202		JB 0x19
  f.go:4	0x17	eb0c		JMP 0x25
  f.go:5	0x19	7705		JA 0x20
  f.go:5	0x1b	e800000000	CALL 0x20	[1:5]R_CALL:pkg.g
  f.go:6	0x20	7e03		JLE 0x25
  f.go:6	0x22	c3		RET
  f.go:6	0x23	ebee		JMP 0x13
  f.go:3	0x25	e800000000	CALL 0x2a	[1:5]R_CALL:runtime.panicIndex
`)
	if len(syms) != 1 || len(syms[0].insts) != 10 || syms[0].name != "pkg.f" {
		t.Fatalf("parsed %+v", syms)
	}
	insts := syms[0].insts
	at := map[uint64]int{}
	for i, in := range insts {
		at[in.addr] = i
	}
	for _, c := range []struct {
		addr uint64
		want string
	}{
		{0x25, "runtime.panicIndex"}, // the taken path of JAE
		{0x17, "runtime.panicIndex"}, // JB's fall-through, through a JMP
		{0x1b, ""},                   // another call first
		{0x22, ""},                   // a return first
		{0x15, ""},                   // a branch first
	} {
		if got := reachesPanic(insts, at, c.addr); got != c.want {
			t.Errorf("reachesPanic(%#x) = %q, want %q", c.addr, got, c.want)
		}
	}
	if got := normalizeCallee("petscfun3d/internal/ilu.axpyCol[go.shape.float32]<1>"); got != "petscfun3d/internal/ilu.axpyCol" {
		t.Errorf("normalizeCallee = %q", got)
	}
	if got := normalizeCallee("petscfun3d/internal/euler.(*Discretization).gather"); got != "petscfun3d/internal/euler.Discretization.gather" {
		t.Errorf("normalizeCallee = %q", got)
	}
}
