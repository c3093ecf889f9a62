//go:build race

package dist

// See race_off_test.go.
const raceDetectorEnabled = true
