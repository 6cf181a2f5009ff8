//go:build race

package sim

// The race detector makes sync.Pool drop objects at random, so
// allocation counts are only meaningful without it.
func init() { raceEnabled = true }
