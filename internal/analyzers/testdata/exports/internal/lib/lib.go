package lib

// Used is called from the root package.
func Used() string { return "used" }

// TestOnly is called from lib_test.go only: reported.
func TestOnly() int { return 1 }

// Orphan is mentioned only by its own method: reported.
type Orphan struct{ n int }

func (o *Orphan) reset() { *o = Orphan{} }

// Widget is aliased by the root package.
type Widget struct{ n int }

// Size is reachable as fixture.Widget.Size: not reported.
func (w Widget) Size() int { return w.n }

// Label is used by the root package.
type Label string

// String satisfies fmt.Stringer: not reported.
func (l Label) String() string { return string(l) }

// Failure is returned by the root package.
type Failure struct{}

func (Failure) Error() string { return "failure" }

// Unwrap is called by errors.Is through an interface the errors package
// declares inside a function: not reported.
func (Failure) Unwrap() error { return nil }
