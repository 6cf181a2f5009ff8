package analyzers

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// check parses and type-checks src as a single-file package and runs
// the lints over it.
func check(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Run(fset, []*ast.File{f}, info)
}

func checks(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Check
	}
	return out
}

func TestHosttimeFlagged(t *testing.T) {
	ds := check(t, `package p
import "time"
var t0 = time.Now()
func f() time.Duration { return time.Since(t0) + time.Until(t0) }
`)
	if got := checks(ds); len(got) != 3 {
		t.Fatalf("want 3 hosttime findings, got %v", got)
	}
	for _, d := range ds {
		if d.Check != "hosttime" {
			t.Errorf("unexpected check %q", d.Check)
		}
	}
}

func TestHosttimeAliasedImportStillFlagged(t *testing.T) {
	ds := check(t, `package p
import clock "time"
var t0 = clock.Now()
`)
	if len(ds) != 1 || ds[0].Check != "hosttime" {
		t.Fatalf("aliased import must still be flagged, got %v", ds)
	}
}

func TestHosttimeNonClockFunctionsAllowed(t *testing.T) {
	ds := check(t, `package p
import "time"
var d = 3 * time.Second
var tm = time.Unix(0, 0)
func f() { time.Sleep(d) }
`)
	if len(ds) != 0 {
		t.Fatalf("time.Second/Unix/Sleep must pass, got %v", ds)
	}
}

func TestGlobalRandFlagged(t *testing.T) {
	ds := check(t, `package p
import "math/rand"
func f() (int, float64) { rand.Shuffle(3, func(i, j int) {}); return rand.Intn(7), rand.Float64() }
`)
	if got := checks(ds); len(got) != 3 {
		t.Fatalf("want 3 globalrand findings, got %v", got)
	}
}

func TestSeededRandAllowed(t *testing.T) {
	ds := check(t, `package p
import "math/rand"
func f() int { r := rand.New(rand.NewSource(42)); return r.Intn(7) }
`)
	if len(ds) != 0 {
		t.Fatalf("seeded rand.New(rand.NewSource(...)) must pass, got %v", ds)
	}
}

func TestMapIterFlagged(t *testing.T) {
	ds := check(t, `package p
type set map[string]bool
func f(m map[int]int, s set) (n int) {
	for range m {
		n++
	}
	for k := range s {
		_ = k
	}
	return
}
`)
	if got := checks(ds); len(got) != 2 || got[0] != "mapiter" || got[1] != "mapiter" {
		t.Fatalf("want 2 mapiter findings (incl. named map type), got %v", got)
	}
}

func TestSliceRangeAllowed(t *testing.T) {
	ds := check(t, `package p
func f(xs []int, s string, ch chan int) (n int) {
	for range xs {
		n++
	}
	for range s {
		n++
	}
	for range ch {
		n++
	}
	return
}
`)
	if len(ds) != 0 {
		t.Fatalf("slice/string/channel ranges must pass, got %v", ds)
	}
}

func TestAllowSuppression(t *testing.T) {
	ds := check(t, `package p
import "time"
var a = time.Now() //resccl:allow hosttime
//resccl:allow hosttime
var b = time.Now()
var c = time.Now() //resccl:allow mapiter
`)
	if len(ds) != 1 || ds[0].Check != "hosttime" {
		t.Fatalf("only the mismatched suppression should fire, got %v", ds)
	}
	if ds[0].Pos == token.NoPos {
		t.Fatalf("finding lost its position")
	}
}

func TestAllowMultipleChecksOneComment(t *testing.T) {
	ds := check(t, `package p
import "math/rand"
//resccl:allow globalrand hosttime
var x = rand.Int()
`)
	if len(ds) != 0 {
		t.Fatalf("multi-check suppression must apply, got %v", ds)
	}
}

func TestDeterministicScope(t *testing.T) {
	for path, want := range map[string]bool{
		"github.com/resccl/resccl/internal/sim":   true,
		"github.com/resccl/resccl/internal/sched": true,
		"github.com/resccl/resccl/internal/obs":   true,
		"internal/sim":                            true,
		"github.com/resccl/resccl/internal/simx":  false,
		"time":                                    false,
	} {
		if got := Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
