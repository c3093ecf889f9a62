package cpuid

import (
	"bytes"
	"os"
	"testing"
)

// TestAVX2MatchesKernelFlags: the value read at init is the probe's, and
// on Linux it agrees with the avx2 flag the kernel reports — which the
// kernel also drops when it does not save the YMM state.
func TestAVX2MatchesKernelFlags(t *testing.T) {
	if AVX2 != hasAVX2() {
		t.Fatalf("AVX2 = %v at init, the probe now says %v", AVX2, !AVX2)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	for _, line := range bytes.Split(info, []byte("\n")) {
		name, flags, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(bytes.TrimSpace(name)) != "flags" {
			continue
		}
		listed := false
		for _, f := range bytes.Fields(flags) {
			listed = listed || string(f) == "avx2"
		}
		if listed != AVX2 {
			t.Fatalf("the kernel lists avx2: %v; the probe says %v", listed, AVX2)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
