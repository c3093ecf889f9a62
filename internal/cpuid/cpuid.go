// Package cpuid holds the host's x86 feature bits that the assembly
// kernels of internal/ilu and internal/euler are chosen by. It reads them
// once, at init, so every package that dispatches on them sees the same
// answer for the life of the process.
package cpuid

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches. It is set at init by the amd64
// probe (cpuid_amd64.go) and is false on every other architecture.
var AVX2 bool
