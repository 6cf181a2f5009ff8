package cert

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

var update = flag.Bool("update", false, "rewrite testdata/certs.golden")

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// buildFor constructs builder b for an nNodes×gpus shape, or reports
// ok=false when the builder rejects the shape (e.g. RHD off a power of
// two) — the same skip convention the tune sweep and CI matrix use.
func buildFor(b expert.Builder, nNodes, gpus int) (*ir.Algorithm, bool) {
	var (
		algo *ir.Algorithm
		err  error
	)
	if b.NParams == 2 {
		algo, err = b.Build(nNodes, gpus)
	} else {
		algo, err = b.Build(nNodes * gpus)
	}
	if err != nil {
		return nil, false
	}
	return algo, true
}

func compileKernel(t *testing.T, algo *ir.Algorithm, tp *topo.Topology, proto ir.Protocol) *kernel.Kernel {
	t.Helper()
	c, err := core.Compile(context.Background(), algo, tp, core.Options{Protocol: proto})
	if err != nil {
		t.Fatalf("compile %q: %v", algo.Name, err)
	}
	return c.Kernel
}

// TestCertifyScale: the 512-rank hierarchical plan must certify fast —
// the certifier rides every backend compile, so it has a latency
// budget of its own.
func TestCertifyScale(t *testing.T) {
	algo, err := expert.Build("hier-allreduce", 64, 8)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tp := topo.NewRail(64, 8, topo.A100(), 8)
	k := compileKernel(t, algo, tp, ir.ProtoSimple)
	start := time.Now()
	c, err := Certify(k, tp, Options{BufferBytes: 64 << 20})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	// The budget is measured without the race detector, which slows
	// certification several-fold.
	if d := time.Since(start); d > time.Second && !raceEnabled {
		t.Fatalf("certifying 512 ranks took %v, budget 1s", d)
	}
	if c.GapPct < 0 {
		t.Fatalf("negative gap %.2f%% at 512 ranks", c.GapPct)
	}
}

// TestBudgetLintFires: an over-subscribed plan (every rank talks to
// every peer: 14 TBs/rank on 1×8 mesh) must trip a tight SM budget,
// and a generous budget must stay clean.
func TestBudgetLintFires(t *testing.T) {
	algo, err := expert.Build("mesh-allgather", 8)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tp := topo.New(1, 8, topo.A100())
	k := compileKernel(t, algo, tp, ir.ProtoSimple)

	tight := BudgetLints(k, tp, Options{Budget: Budget{MaxTBsPerRank: 2}})
	found := false
	for _, d := range tight {
		if d.Code == analyze.CodeBudgetTB {
			found = true
			if !IsBudgetDiag(d.Code) {
				t.Fatalf("IsBudgetDiag(%q) = false", d.Code)
			}
		}
	}
	if !found {
		t.Fatalf("tight budget produced no %s lint; got %v", analyze.CodeBudgetTB, tight)
	}

	if ds := BudgetLints(k, tp, Options{}); len(ds) != 0 {
		t.Fatalf("default budget flagged a sane plan: %v", ds)
	}
}

// TestBudgetMemLint: a buffer budget below what the operator itself
// requires must fire the memory lint (allgather ends holding N× its
// share, so a 1.0× factor on the full buffer is always satisfiable,
// but a tiny synthetic budget is not).
func TestBudgetMemLint(t *testing.T) {
	algo, err := expert.Build("ring-allgather", 8)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tp := topo.New(1, 8, topo.A100())
	k := compileKernel(t, algo, tp, ir.ProtoSimple)
	ds := BudgetLints(k, tp, Options{Budget: Budget{MaxBufferFactor: 0.5}})
	found := false
	for _, d := range ds {
		if d.Code == analyze.CodeBudgetMem {
			found = true
		}
	}
	if !found {
		t.Fatalf("0.5× buffer budget produced no %s lint; got %v", analyze.CodeBudgetMem, ds)
	}
}

func TestGapLint(t *testing.T) {
	c := &Certificate{GapPct: 80, CompletionUS: 180, LowerBoundUS: 100}
	if ds := GapLint(c, 50); len(ds) != 1 || ds[0].Code != CodeGap {
		t.Fatalf("expected one %s lint, got %v", CodeGap, ds)
	}
	if ds := GapLint(c, 100); ds != nil {
		t.Fatalf("gap below threshold still linted: %v", ds)
	}
	if ds := GapLint(c, 0); ds != nil {
		t.Fatalf("disabled threshold still linted: %v", ds)
	}
}

func TestCertificateHash(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	algo, err := expert.Build("ring-allreduce", 16)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	k := compileKernel(t, algo, tp, ir.ProtoSimple)
	c1, err := Certify(k, tp, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	c2, err := Certify(k, tp, Options{})
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if c1.Hash != c2.Hash {
		t.Fatalf("certification is not reproducible: %s vs %s", c1.Hash, c2.Hash)
	}
	// Tampering with any certified field must break the hash.
	c1.GapPct += 1
	if err := verify(c1); err == nil {
		t.Fatal("tampered certificate still verifies")
	}
}

// goldenEntry is one row of testdata/certs.golden.
type goldenEntry struct {
	Algorithm    string  `json:"algorithm"`
	CompletionUS float64 `json:"completion_us"`
	LowerBoundUS float64 `json:"lower_bound_us"`
	GapPct       float64 `json:"gap_pct"`
	Hash         string  `json:"hash"`
}

// TestCertsGolden certifies every registered algorithm on the paper's
// 2×8 A100 testbed at 64 MB / Simple and pins the gaps. Two gates:
//
//   - absolute: completion < 2.5× the α–β lower bound (gap < 150%) for
//     every algorithm — the resource-efficiency acceptance bar;
//   - ratchet: the gap may not regress more than 5% (relative, +0.01pp
//     float slack) against the committed golden. Regenerate
//     deliberately with -update when plans or the cost model change.
func TestCertsGolden(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	var got []goldenEntry
	for _, b := range expert.Registry() {
		algo, ok := buildFor(b, 2, 8)
		if !ok {
			continue
		}
		k := compileKernel(t, algo, tp, ir.ProtoSimple)
		c, err := Certify(k, tp, Options{BufferBytes: 64 << 20})
		if err != nil {
			t.Fatalf("certify %q: %v", b.Name, err)
		}
		if err := verify(c); err != nil {
			t.Fatalf("certificate %q: %v", b.Name, err)
		}
		if c.GapPct >= 150 {
			t.Errorf("%s: completion %.3fµs is %.2f× the lower bound %.3fµs (gap %.2f%%, acceptance bar 2.5×)",
				b.Name, c.CompletionUS, c.CompletionUS/c.LowerBoundUS, c.LowerBoundUS, c.GapPct)
		}
		got = append(got, goldenEntry{
			Algorithm:    b.Name,
			CompletionUS: c.CompletionUS,
			LowerBoundUS: c.LowerBoundUS,
			GapPct:       c.GapPct,
			Hash:         c.Hash,
		})
	}

	path := filepath.Join("testdata", "certs.golden")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("rewrote %s with %d certificates", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	wantBy := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		wantBy[e.Algorithm] = e
	}
	for _, g := range got {
		w, ok := wantBy[g.Algorithm]
		if !ok {
			t.Errorf("%s: not in golden (new algorithm? regenerate with -update)", g.Algorithm)
			continue
		}
		if g.GapPct > w.GapPct*1.05+0.01 {
			t.Errorf("%s: certified gap regressed %.2f%% → %.2f%% (>5%% ratchet; regenerate deliberately with -update)",
				g.Algorithm, w.GapPct, g.GapPct)
		}
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d algorithms, run produced %d (regenerate with -update)", len(want), len(got))
	}
}

// verify checks a certificate's internal consistency: the hash matches
// the canonical content and the bound relations hold.
func verify(c *Certificate) error {
	if got := c.ComputeHash(); got != c.Hash {
		return fmt.Errorf("cert: hash mismatch: recorded %s, canonical content hashes to %s", c.Hash, got)
	}
	if c.LowerBoundUS <= 0 {
		return fmt.Errorf("cert: non-positive lower bound %.3fµs", c.LowerBoundUS)
	}
	if c.GapPct < 0 {
		return fmt.Errorf("cert: negative optimality gap %.2f%%", c.GapPct)
	}
	return nil
}
