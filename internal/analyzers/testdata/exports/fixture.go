// Package fixture is the root package of the module that
// TestTestOnlyExportsFixture scans.
package fixture

import (
	"fmt"

	"example.com/fixture/internal/lib"
)

// Widget is public API, so its methods are too.
type Widget = lib.Widget

// WidgetConfig is public API, so its fields are too.
type WidgetConfig = lib.WidgetConfig

// Describe reaches the names production code uses.
func Describe() string { return fmt.Sprint(lib.Label("widget")) + lib.Used() }

// Fail returns the error type production code uses.
func Fail() error { return lib.Failure{} }

// Configure sets one of the option fields.
func Configure() lib.Options { return lib.Options{Set: true} }
