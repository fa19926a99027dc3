//go:build race

package mc_test

// raceDetector reports whether the test binary runs under -race, where
// explorations are several times slower and larger.
const raceDetector = true
