//go:build race

package cert

// TestCertifyScale's wall-clock budget is measured without the race
// detector, so it is not enforced under it.
func init() { raceEnabled = true }
