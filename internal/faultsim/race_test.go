//go:build race

package faultsim

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts unstable.
const raceEnabled = true
