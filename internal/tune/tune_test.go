package tune

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/synth/search"
	"github.com/resccl/resccl/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fullSweep runs the full default sweep on the reference 2×8 A100 fabric
// exactly once and shares the result between the golden, acceptance and
// dispatch-optimality tests.
var fullSweep = struct {
	once sync.Once
	res  *Result
	err  error
}{}

func fullSweep2x8(t *testing.T) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	fullSweep.once.Do(func() {
		tp := topo.New(2, 8, topo.A100())
		fullSweep.res, fullSweep.err = Sweep(context.Background(), tp, Options{Parallel: true})
	})
	if fullSweep.err != nil {
		t.Fatalf("full sweep: %v", fullSweep.err)
	}
	return fullSweep.res
}

func TestSweepDeterministicAcrossRuns(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	a, err := Sweep(context.Background(), tp, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(context.Background(), tp, Options{Quick: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.Table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.Table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("serial and parallel sweeps diverged:\n%s\n---\n%s", aj, bj)
	}
	if a.Table.Hash() != b.Table.Hash() {
		t.Fatal("hashes diverged for identical tables")
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts diverged: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i].Completion != b.Cells[i].Completion {
			t.Fatalf("cell %d completion diverged", i)
		}
	}
}

// TestDispatchIsArgmin checks the table's central promise: every entry
// names the cell with the lowest simulated completion among all
// candidates and tiers measured at that entry's probe size.
func TestDispatchIsArgmin(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	res, err := Sweep(context.Background(), tp, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	checkArgmin(t, res)
}

func checkArgmin(t *testing.T, res *Result) {
	t.Helper()
	for _, e := range res.Table.Entries {
		op, err := ir.ParseOpType(e.Op)
		if err != nil {
			t.Fatalf("entry op %q: %v", e.Op, err)
		}
		best := -1.0
		for _, c := range res.Cells {
			if c.Op != op || c.Bytes != e.ProbeBytes {
				continue
			}
			if best < 0 || c.Completion < best {
				best = c.Completion
			}
		}
		if best < 0 {
			t.Fatalf("entry %s@%d has no measured cells", e.Op, e.ProbeBytes)
		}
		if got := e.CompletionUS / 1e6; got != best {
			t.Errorf("entry %s@%d dispatches %s at %g s, but the best cell ran in %g s",
				e.Op, e.ProbeBytes, e.Algorithm, got, best)
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	res, err := Sweep(context.Background(), tp, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != res.Table.Hash() {
		t.Fatal("hash changed across a marshal/load round trip")
	}
	data2, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("bytes changed across a marshal/load round trip")
	}
}

func TestValidateRejectsMalformedTables(t *testing.T) {
	good := func() *Table {
		return &Table{Version: Version, Topology: "2x4", Seed: 1, Entries: []Entry{
			{Op: "Allreduce", MaxBytes: 1 << 20, Algorithm: "ring-allreduce", Protocol: "LL", ProbeBytes: 1 << 19},
			{Op: "Allreduce", Algorithm: "hm-allreduce", Protocol: "Simple", ProbeBytes: 4 << 20},
		}}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline table invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Table)
	}{
		{"future version", func(t *Table) { t.Version = Version + 1 }},
		{"zero version", func(t *Table) { t.Version = 0 }},
		{"no entries", func(t *Table) { t.Entries = nil }},
		{"bad op", func(t *Table) { t.Entries[0].Op = "Gather" }},
		{"empty algorithm", func(t *Table) { t.Entries[0].Algorithm = "" }},
		{"auto protocol", func(t *Table) { t.Entries[0].Protocol = "auto" }},
		{"bad protocol", func(t *Table) { t.Entries[0].Protocol = "LL256" }},
		{"negative bound", func(t *Table) { t.Entries[0].MaxBytes = -1 }},
		{"descending buckets", func(t *Table) {
			t.Entries[1].MaxBytes = 1 << 19
			t.Entries = append(t.Entries, Entry{Op: "Allreduce", Algorithm: "x", Protocol: "LL", ProbeBytes: 1})
		}},
		{"bucket after unbounded", func(t *Table) {
			t.Entries = append(t.Entries, Entry{Op: "Allreduce", MaxBytes: 8 << 20, Algorithm: "x", Protocol: "LL", ProbeBytes: 1})
		}},
	}
	for _, tc := range cases {
		tb := good()
		tc.mut(tb)
		if err := tb.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLookupBuckets(t *testing.T) {
	tb := &Table{Version: Version, Topology: "2x4", Seed: 1, Entries: []Entry{
		{Op: "Allreduce", MaxBytes: 1 << 20, Algorithm: "small", Protocol: "LL", ProbeBytes: 1 << 19},
		{Op: "Allreduce", MaxBytes: 32 << 20, Algorithm: "mid", Protocol: "LL128", ProbeBytes: 4 << 20},
		{Op: "Allreduce", Algorithm: "large", Protocol: "Simple", ProbeBytes: 256 << 20},
		{Op: "Allgather", MaxBytes: 8 << 20, Algorithm: "ag-only", Protocol: "Simple", ProbeBytes: 1 << 20},
	}}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op    ir.OpType
		bytes int64
		want  string
		ok    bool
	}{
		{ir.OpAllReduce, 1, "small", true},
		{ir.OpAllReduce, 1 << 20, "small", true},
		{ir.OpAllReduce, 1<<20 + 1, "mid", true},
		{ir.OpAllReduce, 1 << 30, "large", true},
		{ir.OpAllGather, 4 << 20, "ag-only", true},
		// Beyond every bounded bucket with no unbounded fallback, the
		// last bucket serves.
		{ir.OpAllGather, 64 << 20, "ag-only", true},
		{ir.OpReduceScatter, 1 << 20, "", false},
	}
	for _, tc := range cases {
		e, ok := tb.Lookup(tc.op, tc.bytes)
		if ok != tc.ok || (ok && e.Algorithm != tc.want) {
			t.Errorf("Lookup(%v, %d) = %q/%v, want %q/%v", tc.op, tc.bytes, e.Algorithm, ok, tc.want, tc.ok)
		}
	}
}

func TestHashChangesWithContent(t *testing.T) {
	tb := &Table{Version: Version, Topology: "2x4", Seed: 1, Entries: []Entry{
		{Op: "Allreduce", Algorithm: "ring-allreduce", Protocol: "Simple", ProbeBytes: 1 << 20},
	}}
	h1 := tb.Hash()
	tb.Entries[0].Algorithm = "hm-allreduce"
	if tb.Hash() == h1 {
		t.Fatal("hash insensitive to entry content")
	}
}

// TestGoldenDispatch pins the full 2×8 A100 sweep: the emitted table
// must be byte-identical to testdata/dispatch.golden. Regenerate with
//
//	go test ./internal/tune -run TestGoldenDispatch -update
func TestGoldenDispatch(t *testing.T) {
	res := fullSweep2x8(t)
	got, err := res.Table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "dispatch.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dispatch table drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
	checkArgmin(t, res)
}

// TestFullSweepCrossesAlgorithms checks the tuned table exercises the
// size-dependent crossovers the paper motivates: the 2×8 A100 table
// must not dispatch one (algorithm, protocol) pair for every size.
func TestFullSweepCrossesAlgorithms(t *testing.T) {
	res := fullSweep2x8(t)
	byOp := map[string]map[string]bool{}
	for _, e := range res.Table.Entries {
		if byOp[e.Op] == nil {
			byOp[e.Op] = map[string]bool{}
		}
		byOp[e.Op][e.Algorithm+"/"+e.Protocol] = true
	}
	for op, picks := range byOp {
		if len(picks) < 2 {
			t.Errorf("%s: table dispatches a single pick for every size — no crossover found", op)
		}
	}
}

// TestSynthesizedPlanWins is the acceptance gate: on a 4×4 A100 fabric
// the sketch search must discover a plan that beats every registered
// algorithm at some swept size by more than 5%. On 2×8 it finds none:
// its best AllReduce sketch is HM-AllReduce's own pattern and ties it.
func TestSynthesizedPlanWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	res, err := Sweep(context.Background(), topo.New(4, 4, topo.A100()), Options{Parallel: true})
	if err != nil {
		t.Fatalf("full sweep: %v", err)
	}
	type key struct {
		op    ir.OpType
		bytes int64
	}
	bestSynth := map[key]float64{}
	bestReg := map[key]float64{}
	for _, c := range res.Cells {
		k := key{c.Op, c.Bytes}
		m := bestReg
		if c.Candidate.Synth {
			m = bestSynth
		}
		if v, ok := m[k]; !ok || c.Completion < v {
			m[k] = c.Completion
		}
	}
	var best key
	bestWin := 0.0 // fraction of the registered completion saved
	for k, synth := range bestSynth {
		reg, ok := bestReg[k]
		if win := 1 - synth/reg; ok && win > bestWin {
			best, bestWin = k, win
		}
	}
	if bestWin <= 0.05 {
		t.Fatalf("no synthesized plan beat the registered algorithms by more than 5%% at any swept size (best %.1f%%)", 100*bestWin)
	}
	t.Logf("synthesized plan wins %v at %d bytes: %.3g s vs %.3g s registered (−%.1f%%)",
		best.op, best.bytes, bestSynth[best], bestReg[best], 100*bestWin)
}

// TestSweepPrunesBudgetViolators pins the budget pre-check: under a
// tight SM/channel budget (2 TBs per rank) the all-to-all mesh
// AllGather — which needs a thread block per peer in each direction —
// is pruned for its TB budget, the ring (one send + one recv TB per
// rank) survives, and no pruned candidate is kept for measurement, so
// none can be measured or dispatched.
func TestSweepPrunesBudgetViolators(t *testing.T) {
	ctx := context.Background()
	tp := topo.New(1, 8, topo.A100())
	req := exec.Request{Backend: backend.NewResCCL(), Cache: backend.NewCache(), Topo: tp}
	cands, err := candidates(ctx, tp, ir.OpAllGather, Options{Quick: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	n := len(cands)
	kept, pruned, err := fitBudget(ctx, req, ir.OpAllGather, cands, analyze.Budget{MaxTBsPerRank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept)+len(pruned) != n {
		t.Fatalf("%d kept and %d pruned of %d candidates", len(kept), len(pruned), n)
	}
	gone := map[string]bool{}
	for _, p := range pruned {
		gone[p.Name] = true
		if p.Op != ir.OpAllGather {
			t.Errorf("%s pruned for op %v", p.Name, p.Op)
		}
	}
	if !gone["mesh-allgather"] {
		t.Errorf("mesh-allgather survived a 2-TB budget; pruned set: %v", pruned)
	}
	for _, p := range pruned {
		if p.Name == "mesh-allgather" && !strings.HasPrefix(p.Reason, analyze.CodeBudgetTB+": ") {
			t.Errorf("mesh-allgather pruned for %q, want a %s violation", p.Reason, analyze.CodeBudgetTB)
		}
	}
	ring := false
	for _, c := range kept {
		if gone[c.Name] {
			t.Errorf("pruned candidate %s was kept for measurement", c.Name)
		}
		ring = ring || c.Name == "ring-allgather"
	}
	if !ring {
		t.Error("ring-allgather (2 TBs per rank) was pruned")
	}
}

// TestSweepEntriesCarryCertificates checks every dispatch entry's
// certificate: aligned with the table, internally consistent (hash,
// positive lower bound, non-negative gap) and matching the entry's
// pinned gap/hash fields.
func TestSweepEntriesCarryCertificates(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	res, err := Sweep(context.Background(), tp, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Certs) != len(res.Table.Entries) {
		t.Fatalf("%d certificates for %d entries", len(res.Certs), len(res.Table.Entries))
	}
	for i, e := range res.Table.Entries {
		c := res.Certs[i]
		if got := c.ComputeHash(); got != c.Hash || c.LowerBoundUS <= 0 || c.GapPct < 0 {
			t.Errorf("entry %d (%s@%d): certificate hash %s (content hashes to %s), lower bound %.3fµs, gap %.2f%%",
				i, e.Op, e.ProbeBytes, c.Hash, got, c.LowerBoundUS, c.GapPct)
		}
		if e.GapPct != c.GapPct || e.CertHash != c.Hash {
			t.Errorf("entry %d (%s@%d): gap/hash %.2f%%/%s drifted from certificate %.2f%%/%s",
				i, e.Op, e.ProbeBytes, e.GapPct, e.CertHash, c.GapPct, c.Hash)
		}
		if c.BufferBytes != e.ProbeBytes {
			t.Errorf("entry %d: certified at %d bytes, probe was %d", i, c.BufferBytes, e.ProbeBytes)
		}
	}
}

// TestSweepSkipsOnlyLosers checks the sweep's pruning against an
// oracle that compiles and simulates every cell of the grid: the table
// is the full grid's argmin table byte for byte, the measured cells are
// an ordered subset of the grid with identical completions, and every
// skipped cell's bound is above its kind's best completion at its
// point and at most its own completion.
func TestSweepSkipsOnlyLosers(t *testing.T) {
	t.Run("2x4-quick", func(t *testing.T) {
		tp := topo.New(2, 4, topo.A100())
		m := obs.NewMetrics()
		opts := Options{Quick: true, Parallel: true, Metrics: m}
		res, err := Sweep(context.Background(), tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		// sim.runs counts distinct simulations: one per distinct plan
		// (content, tier, size) among the measured cells, plus the
		// sketch search's, which a standalone search per op, with the
		// sweep's anchors and effort, counts for itself.
		searchRuns := obs.NewMetrics()
		sizes := QuickSizes()
		for _, op := range sweepOps {
			_, err := search.Search(context.Background(), tp, op, []int64{sizes[0], sizes[1], sizes[2]},
				search.SearchOptions{Seed: 1, Beam: 3, Rounds: 1, Metrics: searchRuns})
			if err != nil {
				t.Fatal(err)
			}
		}
		plans := map[exec.PlanID]bool{}
		for _, c := range res.Cells {
			plans[exec.PlanID{Algo: backend.Content(c.Candidate.Algo), Protocol: c.Protocol, Bytes: c.Bytes}] = true
		}
		if len(plans) == len(res.Cells) {
			t.Errorf("all %d measured cells are distinct plans; the shape should hold duplicates", len(res.Cells))
		}
		want := int64(len(plans)) + searchRuns.Counter("sim.runs")
		if got := m.Counter("sim.runs"); got != want {
			t.Errorf("sim.runs = %d, want %d: %d distinct plans among %d cells measured, plus %d search simulations",
				got, want, len(plans), len(res.Cells), searchRuns.Counter("sim.runs"))
		}
		checkSkipsOnlyLosers(t, tp, opts, res)
	})
	t.Run("2x8-full", func(t *testing.T) {
		res := fullSweep2x8(t)
		checkSkipsOnlyLosers(t, topo.New(2, 8, topo.A100()), Options{Parallel: true}, res)
	})
}

func checkSkipsOnlyLosers(t *testing.T, tp *topo.Topology, opts Options, res *Result) {
	ctx := context.Background()
	opts = opts.withDefaults()
	pruned := map[string]bool{}
	for _, p := range res.Pruned {
		pruned[p.Op.String()+"/"+p.Name] = true
	}
	type oracleCell struct {
		Cell
		bound  float64
		kernel *kernel.Kernel
	}
	var grid []oracleCell
	for _, op := range sweepOps {
		cands, err := candidates(ctx, tp, op, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range opts.sizes() {
			for _, cand := range cands {
				if pruned[op.String()+"/"+cand.Name] {
					continue
				}
				for _, proto := range sweepTiers {
					if TierCovers(proto, size) {
						grid = append(grid, oracleCell{Cell: Cell{Op: op, Bytes: size, Candidate: cand, Protocol: proto}})
					}
				}
			}
		}
	}
	if res.Grid != len(grid) {
		t.Fatalf("Result.Grid = %d, the oracle's grid has %d cells", res.Grid, len(grid))
	}
	req := exec.Request{Backend: backend.NewResCCL(), Cache: backend.NewCache(), Topo: tp}
	err := exec.Cells(ctx, exec.Workers(true, 0), len(grid), func(i int) error {
		c := &grid[i]
		outs, err := exec.Run(ctx, req, exec.Call{Algo: c.Candidate.Algo, BufferBytes: c.Bytes, Protocol: c.Protocol})
		if err != nil {
			return err
		}
		c.Completion, c.kernel = outs[0].Result.Completion, outs[0].Plan.Kernel
		c.bound, _, _ = cert.LowerBound(c.kernel, tp, c.Bytes, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d cells measured", len(res.Cells), len(grid))

	// The measured cells are an ordered subset of the grid.
	measured := make([]bool, len(grid))
	same := func(a, b Cell) bool {
		return a.Op == b.Op && a.Bytes == b.Bytes && a.Candidate.Name == b.Candidate.Name && a.Protocol == b.Protocol
	}
	g := 0
	for _, c := range res.Cells {
		for g < len(grid) && !same(grid[g].Cell, c) {
			g++
		}
		if g == len(grid) {
			t.Fatalf("measured cell %s/%v at %d is not in the grid, or out of grid order", c.Candidate.Name, c.Protocol, c.Bytes)
		}
		if c.Completion != grid[g].Completion {
			t.Errorf("%s/%v at %d: sweep measured %g s, oracle %g s", c.Candidate.Name, c.Protocol, c.Bytes, c.Completion, grid[g].Completion)
		}
		measured[g] = true
		g++
	}

	// Walk the grid's (op, size) points: the oracle's argmin entry, and
	// the skipped cells' bounds against their kind's best, measured or
	// not.
	want := &Table{Version: Version, Topology: tp.String(), Seed: opts.Seed}
	for start := 0; start < len(grid); {
		end := start
		for end < len(grid) && grid[end].Op == grid[start].Op && grid[end].Bytes == grid[start].Bytes {
			end++
		}
		w := start
		kindBest := map[bool]float64{}
		for i := start; i < end; i++ {
			c := grid[i]
			if better(c.Cell, grid[w].Cell) {
				w = i
			}
			if b, ok := kindBest[c.Candidate.Synth]; !ok || c.Completion < b {
				kindBest[c.Candidate.Synth] = c.Completion
			}
		}
		for i := start; i < end; i++ {
			c := grid[i]
			if measured[i] {
				continue
			}
			if !cert.BelowBound(kindBest[c.Candidate.Synth], c.bound) {
				t.Errorf("%s/%v at %d was skipped, but its bound %g s does not exceed its kind's best %g s",
					c.Candidate.Name, c.Protocol, c.Bytes, c.bound, kindBest[c.Candidate.Synth])
			}
			if cert.BelowBound(c.Completion, c.bound) {
				t.Errorf("%s/%v at %d: bound %g s exceeds the simulated %g s", c.Candidate.Name, c.Protocol, c.Bytes, c.bound, c.Completion)
			}
		}
		best := grid[w]
		crt, err := cert.FromCompletion(best.kernel, tp, cert.Options{BufferBytes: best.Bytes}, best.Completion)
		if err != nil {
			t.Fatal(err)
		}
		e := Entry{
			Op: best.Op.String(), Algorithm: best.Candidate.Name, Protocol: best.Protocol.String(),
			ProbeBytes: best.Bytes, CompletionUS: best.Completion * 1e6, GapPct: crt.GapPct, CertHash: crt.Hash,
		}
		if end < len(grid) && grid[end].Op == best.Op {
			e.MaxBytes = geomMid(best.Bytes, grid[end].Bytes)
		}
		want.Entries = append(want.Entries, e)
		start = end
	}
	want.hash = want.digest()
	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := res.Table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("pruned sweep's table differs from the full grid's argmin table:\n%s\n---\n%s", gotJSON, wantJSON)
	}
}

// TestSweepGrid pins what the sweep assumes of its fixed grid: distinct
// ops, distinct concrete tiers listed lowest first, and size grids that
// ascend strictly from a positive size (bucket bounds are midpoints of
// neighbours) with Simple covering each size, so every (candidate, size)
// block has a cell and the budget pre-check's Simple compiles are ones
// the measurement pass makes anyway.
func TestSweepGrid(t *testing.T) {
	t.Run("ops distinct", func(t *testing.T) {
		seen := map[ir.OpType]bool{}
		for _, op := range sweepOps {
			if seen[op] {
				t.Errorf("sweepOps lists %v twice", op)
			}
			seen[op] = true
		}
	})
	t.Run("tiers distinct and concrete", func(t *testing.T) {
		seen := map[ir.Protocol]bool{}
		for _, p := range sweepTiers {
			if !p.Forced() {
				t.Errorf("sweepTiers holds %v, not a concrete tier", p)
			}
			if seen[p] {
				t.Errorf("sweepTiers lists %v twice", p)
			}
			seen[p] = true
		}
	})
	t.Run("tiers lowest first", func(t *testing.T) {
		for i := 1; i < len(sweepTiers); i++ {
			lo, hi := sweepTiers[i-1], sweepTiers[i]
			if lo >= hi {
				t.Errorf("sweepTiers lists %v before %v", lo, hi)
			}
			for _, size := range DefaultSizes() {
				if TierCovers(lo, size) && !TierCovers(hi, size) {
					t.Errorf("%v covers %d bytes but the higher %v does not", lo, size, hi)
				}
			}
		}
		if last := sweepTiers[len(sweepTiers)-1]; last != ir.ProtoSimple {
			t.Errorf("highest tier is %v, want %v", last, ir.ProtoSimple)
		}
	})
	for _, quick := range []bool{false, true} {
		name := "full"
		if quick {
			name = "quick"
		}
		sizes := Options{Quick: quick}.sizes()
		t.Run(name+"/sizes ascend", func(t *testing.T) {
			if len(sizes) == 0 || sizes[0] <= 0 {
				t.Fatalf("sizes %v do not start at a positive size", sizes)
			}
			for i := 1; i < len(sizes); i++ {
				if sizes[i] <= sizes[i-1] {
					t.Errorf("sizes[%d] = %d follows %d", i, sizes[i], sizes[i-1])
				}
			}
		})
		t.Run(name+"/simple covers every size", func(t *testing.T) {
			for _, size := range sizes {
				if !TierCovers(ir.ProtoSimple, size) {
					t.Errorf("Simple does not cover %d bytes", size)
				}
			}
		})
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	if _, err := Sweep(context.Background(), nil, Options{}); err == nil {
		t.Fatal("nil topology accepted")
	}
}

// A sweep under a cancelled context fails with the context's error: the
// search must not hand back the candidates it reached before the cut.
func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tp := topo.New(2, 2, topo.A100())
	for _, parallel := range []bool{false, true} {
		if _, err := Sweep(ctx, tp, Options{Quick: true, Parallel: parallel}); !errors.Is(err, context.Canceled) {
			t.Errorf("parallel=%v: got %v, want context.Canceled", parallel, err)
		}
	}
}

// TestEqualContentSimulatesIdentically guards the premise of sharing one
// simulation per plan (exec.PlanID): candidates whose algorithms have
// equal content under different names compile and simulate to
// bit-identical results. It compiles every such class among the 1×8,
// 2×4 and 2×8 tune candidates under each member's own name, at every
// tier and the quick grid's sizes the tier covers, and fails the day
// compilation starts to read Algo.Name.
func TestEqualContentSimulatesIdentically(t *testing.T) {
	ctx := context.Background()
	classes := 0
	for _, shape := range [][2]int{{1, 8}, {2, 4}, {2, 8}} {
		tp := topo.New(shape[0], shape[1], topo.A100())
		opts := Options{Parallel: true}.withDefaults()
		req := exec.Request{Backend: backend.NewResCCL(), Cache: backend.NewCache(), Topo: tp, RecordTimeline: true}
		for _, op := range sweepOps {
			cands, err := candidates(ctx, tp, op, opts)
			if err != nil {
				t.Fatal(err)
			}
			byContent := map[[32]byte][]Candidate{}
			var order [][32]byte
			for _, c := range cands {
				key := backend.Content(c.Algo)
				if byContent[key] == nil {
					order = append(order, key)
				}
				byContent[key] = append(byContent[key], c)
			}
			for _, key := range order {
				members := byContent[key]
				if len(members) < 2 {
					continue
				}
				classes++
				for _, proto := range sweepTiers {
					for _, size := range QuickSizes() {
						if !TierCovers(proto, size) {
							continue
						}
						var first *sim.Result
						for _, c := range members {
							outs, err := exec.Run(ctx, req, exec.Call{Algo: c.Algo, BufferBytes: size, Protocol: proto})
							if err != nil {
								t.Fatalf("%s/%v at %d: %v", c.Name, proto, size, err)
							}
							if first == nil {
								first = outs[0].Result
							} else if !reflect.DeepEqual(outs[0].Result, first) {
								t.Errorf("%s %v: %s and %s have equal content but simulate differently under %v at %d bytes",
									tp, op, members[0].Name, c.Name, proto, size)
							}
						}
					}
				}
			}
		}
	}
	if classes == 0 {
		t.Fatal("no two candidates share content; the test exercises nothing")
	}
	t.Logf("%d classes of equal-content candidates", classes)
}
