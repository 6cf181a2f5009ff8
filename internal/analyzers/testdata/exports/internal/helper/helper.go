// Package helper holds a name only tests use, exempted by the fixture
// test's allowlist.
package helper

// Support is allowlisted: not reported.
func Support() string { return "support" }
