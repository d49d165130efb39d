//go:build !race

package faultsim

const raceEnabled = false
