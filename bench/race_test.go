//go:build race

package main

// The race detector slows the simulator several times over, so the smoke
// test's time budget does not apply under it.
func init() { raceEnabled = true }
