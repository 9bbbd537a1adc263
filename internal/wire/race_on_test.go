//go:build race

package wire

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
