//go:build race

package main

// raceEnabled: this test binary runs under the race detector, so the
// daemon its subprocess tests boot is built with -race too.
const raceEnabled = true
