//go:build race

package serve

// Allocation bounds are measured without the race detector, so tests
// that pin them skip under it.
func init() { raceEnabled = true }
