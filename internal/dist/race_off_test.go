//go:build !race

package dist

// raceDetectorEnabled reports whether the race detector is compiled in.
// It makes sync.Pool drop items at random, so an allocation count over
// pool-backed code is skipped under it.
const raceDetectorEnabled = false
