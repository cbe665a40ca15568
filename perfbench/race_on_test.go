//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows the
// online stack past saturation.
const raceEnabled = true
