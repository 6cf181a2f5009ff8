package analyzers

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkAll parses and type-checks src as a single-file package and runs
// the full scope-routed analyzer suite as if the package lived at
// importPath.
func checkAll(t *testing.T, importPath, src string) []Diagnostic {
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
	if _, err := conf.Check(importPath, fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return RunAll(importPath, fset, []*ast.File{f}, info)
}

const serve = "github.com/resccl/resccl/internal/serve"

func TestCtxflowRootContextFlagged(t *testing.T) {
	ds := checkAll(t, serve, `package p
import "context"
func run(ctx context.Context) {}
func f() { run(context.Background()) }
func g() { run(context.TODO()) }
`)
	got := checks(ds)
	if len(got) != 2 || got[0] != "ctxflow" || got[1] != "ctxflow" {
		t.Fatalf("want 2 ctxflow findings for Background/TODO, got %v", ds)
	}
}

func TestCtxflowExportedWithoutCtxFlagged(t *testing.T) {
	ds := checkAll(t, serve, `package p
import "context"
var bg context.Context
func work(ctx context.Context) {}
func Blocked() { work(bg) }
`)
	if len(ds) != 1 || ds[0].Check != "ctxflow" ||
		!strings.Contains(ds[0].Message, "Blocked") {
		t.Fatalf("exported func calling a context-aware callee without a ctx param must be flagged, got %v", ds)
	}
}

func TestCtxflowPropagatingExportedAllowed(t *testing.T) {
	ds := checkAll(t, serve, `package p
import "context"
func work(ctx context.Context) {}
func Fine(ctx context.Context, n int) { work(ctx) }
func unexported() { work(nil) }
type srv struct{}
func (s *srv) Method() { work(nil) }
func Deferred() func() {
	return func() { work(nil) }
}
`)
	if len(ds) != 0 {
		t.Fatalf("propagating/unexported/closure cases must pass, got %v", ds)
	}
}

func TestCtxflowCtxNotFirstFlagged(t *testing.T) {
	ds := checkAll(t, serve, `package p
import "context"
func Odd(n int, ctx context.Context) {}
`)
	if len(ds) != 1 || ds[0].Check != "ctxflow" ||
		!strings.Contains(ds[0].Message, "first parameter") {
		t.Fatalf("ctx-not-first must be flagged, got %v", ds)
	}
}

func TestCtxflowAllowSuppression(t *testing.T) {
	ds := checkAll(t, serve, `package p
import "context"
var bg = context.Background() //resccl:allow ctxflow
`)
	if len(ds) != 0 {
		t.Fatalf("resccl:allow ctxflow must suppress, got %v", ds)
	}
}

func TestGoleakUnjoinableFlagged(t *testing.T) {
	ds := checkAll(t, serve, `package p
func Spin() {
	go func() { println("orphan") }()
}
`)
	if len(ds) != 1 || ds[0].Check != "goleak" {
		t.Fatalf("goroutine with no join/cancel path must be flagged, got %v", ds)
	}
}

func TestGoleakJoinableAllowed(t *testing.T) {
	ds := checkAll(t, serve, `package p
import (
	"context"
	"sync"
)
func worker(ctx context.Context) {}
func OkCtx(ctx context.Context) {
	go func() { <-ctx.Done() }()
	go worker(ctx)
}
func OkWG(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
}
func OkCh(ctx context.Context) chan int {
	ch := make(chan int)
	go func() { ch <- 1 }()
	return ch
}
`)
	if len(ds) != 0 {
		t.Fatalf("ctx/WaitGroup/channel goroutines must pass, got %v", ds)
	}
}

func TestGoleakAllowSuppression(t *testing.T) {
	ds := checkAll(t, serve, `package p
func Fire() {
	//resccl:allow goleak
	go func() { println("sanctioned") }()
}
`)
	if len(ds) != 0 {
		t.Fatalf("resccl:allow goleak must suppress, got %v", ds)
	}
}

func TestLockorderInversionFlagged(t *testing.T) {
	ds := checkAll(t, serve, `package p
import "sync"
type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
func f(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
func g(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`)
	if len(ds) != 1 || ds[0].Check != "lockorder" {
		t.Fatalf("opposite acquisition orders must yield one lockorder finding, got %v", ds)
	}
	if !strings.Contains(ds[0].Message, "A.mu") || !strings.Contains(ds[0].Message, "B.mu") {
		t.Fatalf("finding must name both lock classes, got %q", ds[0].Message)
	}
}

func TestLockorderConsistentAllowed(t *testing.T) {
	ds := checkAll(t, serve, `package p
import "sync"
type A struct{ mu sync.Mutex }
type B struct{ mu sync.RWMutex }
func f(a *A, b *B) {
	a.mu.Lock()
	b.mu.RLock()
	b.mu.RUnlock()
	a.mu.Unlock()
}
func g(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
}
func single(a *A) {
	a.mu.Lock()
	a.mu.Unlock()
}
`)
	if len(ds) != 0 {
		t.Fatalf("consistent order and single locks must pass, got %v", ds)
	}
}

func TestConcurrencyScopeRouting(t *testing.T) {
	// The same root-context source is clean under import paths outside
	// the ctxflow scope.
	src := `package p
import "context"
var bg = context.Background()
`
	for path, want := range map[string]int{
		"github.com/resccl/resccl/internal/serve":   1,
		"github.com/resccl/resccl/internal/backend": 1,
		"github.com/resccl/resccl/internal/tune":    1,
		"github.com/resccl/resccl/internal/bench":   1,
		"github.com/resccl/resccl/internal/sim":     0,
	} {
		if got := len(checkAll(t, path, src)); got != want {
			t.Errorf("RunAll(%q) = %d findings, want %d", path, got, want)
		}
	}
}

func TestCoveredScope(t *testing.T) {
	for path, want := range map[string]bool{
		"github.com/resccl/resccl/internal/sim":     true, // determinism
		"github.com/resccl/resccl/internal/sched":   true,
		"github.com/resccl/resccl/internal/obs":     true,
		"github.com/resccl/resccl/internal/serve":   true, // concurrency
		"github.com/resccl/resccl/internal/backend": true,
		"github.com/resccl/resccl/internal/tune":    true,
		"github.com/resccl/resccl/internal/bench":   true,
		"github.com/resccl/resccl/internal/expert":  false,
		"time": false,
	} {
		if got := Covered(path); got != want {
			t.Errorf("Covered(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestRunAllMergesDeterminismFindings(t *testing.T) {
	// A determinism-scoped package still gets its lints through RunAll.
	ds := checkAll(t, "github.com/resccl/resccl/internal/sim", `package p
import "time"
var t0 = time.Now()
`)
	if len(ds) != 1 || ds[0].Check != "hosttime" {
		t.Fatalf("RunAll must route determinism lints to sim, got %v", ds)
	}
}
