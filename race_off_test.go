//go:build !race

package bitswapmon_test

// raceEnabled reports whether the test binary was built with the race
// detector, which serializes execution and slows it several-fold.
const raceEnabled = false
