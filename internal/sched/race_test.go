//go:build race

package sched

// raceEnabled reports a -race build, whose runtime makes sync.Pool drop
// items at random, so allocation counts are not stable.
const raceEnabled = true
