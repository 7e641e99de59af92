//go:build !race

package campaign

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
