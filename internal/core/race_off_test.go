//go:build !race

package core

// raceDetectorEnabled reports whether the race detector is compiled in.
// It allocates shadow state of its own and makes sync.Pool drop items,
// so the whole-solve allocation gates are skipped under it.
const raceDetectorEnabled = false
