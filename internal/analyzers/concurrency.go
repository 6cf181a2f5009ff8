// Concurrency lints: the second analyzer family, covering the packages
// that host long-lived goroutines, locks and cancellable work
// (internal/serve, internal/backend, internal/tune, internal/bench, the
// shared call path and cell pool in internal/exec, and the sketch search
// in internal/synth/search):
//
//   - ctxflow: cancellation must flow from the caller. Code below cmd/
//     may not synthesize root contexts (context.Background / TODO), and
//     an exported function that performs context-aware work (calls a
//     callee whose first parameter is a context.Context) must itself
//     accept a context.Context — first in its parameter list — and
//     propagate it;
//   - lockorder: within one package, any two mutexes acquired while
//     holding each other must always be acquired in the same order;
//     an A→B acquisition in one function and B→A in another is a
//     latent deadlock;
//   - goleak: a goroutine must have a join or cancellation path. A `go`
//     statement whose function neither references a context, a
//     sync.WaitGroup nor any channel is unstoppable and unjoinable —
//     a leak under every shutdown path. It also covers the compile
//     pipeline's fork-join passes (internal/core, internal/dag).
//
// Like the determinism lints these are scope-routed by import path,
// skip test files, and honour `//resccl:allow <check>` suppressions.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ctxflowSuffixes and goleakSuffixes list the packages whose goroutines
// and blocking work must be cancellable; lockorderSuffixes the packages
// whose lock graphs are checked (the concurrent service and the sharded
// plan cache).
var (
	ctxflowSuffixes = []string{
		"internal/serve", "internal/backend", "internal/tune", "internal/bench",
		"internal/exec", "internal/synth/search",
	}
	goleakSuffixes = []string{
		"internal/serve", "internal/backend", "internal/tune", "internal/bench",
		"internal/core", "internal/dag", "internal/exec", "internal/synth/search",
	}
	lockorderSuffixes = []string{
		"internal/serve", "internal/backend",
	}
)

func inScope(importPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

// Covered reports whether any analyzer family applies to the import
// path — the driver's routing predicate.
func Covered(importPath string) bool {
	return Deterministic(importPath) ||
		inScope(importPath, ctxflowSuffixes) ||
		inScope(importPath, goleakSuffixes) ||
		inScope(importPath, lockorderSuffixes)
}

// RunAll applies every analyzer family whose scope covers importPath
// and returns the merged findings sorted by position. Suppressed
// findings (resccl:allow) are already removed.
func RunAll(importPath string, fset *token.FileSet, files []*ast.File, info *types.Info) []Diagnostic {
	var ds []Diagnostic
	if Deterministic(importPath) {
		ds = append(ds, Run(fset, files, info)...)
	}
	if inScope(importPath, ctxflowSuffixes) {
		ds = append(ds, runCtxflow(fset, files, info)...)
	}
	if inScope(importPath, goleakSuffixes) {
		ds = append(ds, runGoleak(fset, files, info)...)
	}
	if inScope(importPath, lockorderSuffixes) {
		ds = append(ds, runLockorder(fset, files, info)...)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	return ds
}

// reporter wraps the per-file allow-comment machinery shared by every
// analyzer family.
func reporter(fset *token.FileSet, f *ast.File, ds *[]Diagnostic) func(token.Pos, string, string) {
	allowed := allowLines(fset, f)
	return func(pos token.Pos, check, msg string) {
		line := fset.Position(pos).Line
		if allowed[lineCheck{line, check}] || allowed[lineCheck{line - 1, check}] {
			return
		}
		*ds = append(*ds, Diagnostic{Pos: pos, Check: check, Message: msg})
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isWaitGroupType reports whether t is sync.WaitGroup (possibly behind
// a pointer).
func isWaitGroupType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// ctxSignature reports whether the call's callee takes a
// context.Context as its first parameter.
func ctxSignature(call *ast.CallExpr, info *types.Info) bool {
	t := info.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// runCtxflow enforces caller-supplied cancellation: no root contexts
// below cmd/, and exported context-aware functions must accept a
// leading context.Context.
func runCtxflow(fset *token.FileSet, files []*ast.File, info *types.Info) []Diagnostic {
	var ds []Diagnostic
	for _, f := range files {
		report := reporter(fset, f, &ds)
		// Rule 1: no synthesized root contexts anywhere in the package.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "context" {
				return true
			}
			if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
				report(call.Pos(), "ctxflow", fmt.Sprintf(
					"context.%s synthesizes a root context below cmd/; accept and propagate the caller's context.Context", sel.Sel.Name))
			}
			return true
		})
		// Rule 2: exported context-aware functions accept a leading ctx.
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv != nil && !exportedReceiver(fn.Recv) {
				continue // not reachable from outside the package
			}
			params := fn.Type.Params
			hasCtx, ctxFirst := false, false
			if params != nil {
				for i, field := range params.List {
					if t := info.TypeOf(field.Type); t != nil && isContextType(t) {
						hasCtx = true
						ctxFirst = i == 0
					}
				}
			}
			if hasCtx {
				if !ctxFirst {
					report(fn.Pos(), "ctxflow", fmt.Sprintf(
						"exported %s takes a context.Context that is not its first parameter", fn.Name.Name))
				}
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a stored closure runs under its own caller
				}
				call, ok := n.(*ast.CallExpr)
				if ok && ctxSignature(call, info) {
					report(call.Pos(), "ctxflow", fmt.Sprintf(
						"exported %s calls a context-aware function but accepts no context.Context; accept one and propagate it", fn.Name.Name))
				}
				return true
			})
		}
	}
	return ds
}

// exportedReceiver reports whether a method's receiver base type is
// exported (an unexported receiver type makes the method unreachable
// from outside the package, so ctx plumbing is a package-local choice).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return true
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// runGoleak flags goroutines with no join or cancellation path: the
// spawned function references neither a context, a WaitGroup nor any
// channel, so nothing can stop it and nothing can wait for it.
func runGoleak(fset *token.FileSet, files []*ast.File, info *types.Info) []Diagnostic {
	var ds []Diagnostic
	for _, f := range files {
		report := reporter(fset, f, &ds)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goJoinable(g, info) {
				return true
			}
			report(g.Pos(), "goleak",
				"goroutine has no cancellation or join path (no context, WaitGroup or channel in scope); it can neither be stopped nor waited for")
			return true
		})
	}
	return ds
}

// goJoinable reports whether a go statement's function has any
// cancellation/join affordance: a context or WaitGroup value in reach,
// or any channel operation (send, receive, close, select, range).
func goJoinable(g *ast.GoStmt, info *types.Info) bool {
	joinable := false
	mark := func(t types.Type) {
		if t == nil {
			return
		}
		if isContextType(t) || isWaitGroupType(t) {
			joinable = true
		}
		if _, ok := t.Underlying().(*types.Chan); ok {
			joinable = true
		}
	}
	// Arguments passed to the spawned call (covers `go named(ctx, ch)`).
	for _, arg := range g.Call.Args {
		mark(info.TypeOf(arg))
	}
	// For function literals, every identifier the body references
	// (covers captured contexts, WaitGroups and channels).
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mark(info.TypeOf(id))
			}
			return true
		})
	}
	return joinable
}

// lockUse is one mutex acquisition edge: while holding `held`, `locked`
// was acquired at Pos.
type lockEdge struct {
	held, locked string
	pos          token.Pos
}

// runLockorder checks intra-package mutex acquisition-order
// consistency: it records every (held → acquired) pair per function,
// then reports pairs acquired in both orders anywhere in the package.
func runLockorder(fset *token.FileSet, files []*ast.File, info *types.Info) []Diagnostic {
	var edges []lockEdge
	reporters := make(map[*ast.File]func(token.Pos, string, string))
	var ds []Diagnostic
	for _, f := range files {
		reporters[f] = reporter(fset, f, &ds)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			edges = append(edges, lockEdgesIn(fn.Body, info)...)
		}
	}
	// Index first-seen order of each directed pair; report reversals.
	seen := make(map[[2]string]token.Pos)
	for _, e := range edges {
		seen[[2]string{e.held, e.locked}] = e.pos
	}
	reported := make(map[[2]string]bool)
	for _, e := range edges {
		rev := [2]string{e.locked, e.held}
		if revPos, ok := seen[rev]; ok && !reported[[2]string{e.held, e.locked}] && !reported[rev] {
			reported[[2]string{e.held, e.locked}] = true
			// Attribute the finding to the file containing this edge so
			// its allow-comments apply.
			for f, rep := range reporters {
				if f.FileStart <= e.pos && e.pos < f.FileEnd {
					rep(e.pos, "lockorder", fmt.Sprintf(
						"%s acquired while holding %s, but the package also acquires them in the opposite order (%s) — inconsistent lock order risks deadlock",
						e.locked, e.held, fset.Position(revPos)))
				}
			}
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	return ds
}

// lockEdgesIn scans a function body in source order, tracking the set
// of held mutexes and recording each acquisition made while another
// lock is held. Control flow is ignored (a lint, not a prover): a
// Lock() adds the key, an Unlock() removes it, and defer'd Unlocks hold
// to function end — matching the overwhelmingly common straight-line
// locking style.
func lockEdgesIn(body *ast.BlockStmt, info *types.Info) []lockEdge {
	var edges []lockEdge
	var held []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op := mutexOp(call, info)
		if key == "" {
			return true
		}
		switch op {
		case "Lock", "RLock":
			for _, h := range held {
				if h != key {
					edges = append(edges, lockEdge{held: h, locked: key, pos: call.Pos()})
				}
			}
			held = append(held, key)
		case "Unlock", "RUnlock":
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == key {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		}
		return true
	})
	return edges
}

// mutexOp recognises m.Lock()/Unlock()/RLock()/RUnlock() calls on
// sync.Mutex/RWMutex values and returns a stable key naming the lock:
// the receiver's type plus the selector path (e.g. "cacheShard.mu").
func mutexOp(call *ast.CallExpr, info *types.Info) (key, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	recv := info.TypeOf(sel.X)
	if recv == nil || !isMutexType(recv) {
		return "", ""
	}
	return lockKey(sel.X, info), sel.Sel.Name
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockKey names a mutex by the type that owns it and the field path
// reaching it, so `a.mu` and `b.mu` on two values of one struct type
// collapse to the same lock class while distinct fields stay distinct.
func lockKey(expr ast.Expr, info *types.Info) string {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		base := info.TypeOf(e.X)
		if base != nil {
			if p, ok := base.(*types.Pointer); ok {
				base = p.Elem()
			}
			if named, ok := base.(*types.Named); ok {
				return named.Obj().Name() + "." + e.Sel.Name
			}
		}
		return lockKey(e.X, info) + "." + e.Sel.Name
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return lockKey(e.X, info) + "[]"
	case *ast.CallExpr:
		return "call()"
	default:
		return "lock"
	}
}
