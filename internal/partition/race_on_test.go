//go:build race

package partition

// raceEnabled reports whether the race detector is active; its shadow
// memory allocates, so allocation-count gates skip under it.
const raceEnabled = true
