// Package replan builds repair plans for plan-level recovery: given the
// symbolic holdings a partially executed collective reached before
// permanent failures stranded it (internal/verify) and the carved
// topology that survives them (topo.Carve), it emits a fresh
// ir.Algorithm completing the collective's postcondition for the
// surviving ranks — the GC3-style "recompile when the target changes"
// move applied to our own scheduler.
//
// The planner's contract draws one principled line:
//
//   - input contributions may be lost: if no surviving rank holds (or
//     can forward) a contribution, it is declared in Plan.Lost and the
//     degraded postcondition excludes it;
//   - surviving consumers must be served: if a rank the operator
//     obligates cannot be reached from the data, the plan fails with
//     ErrPartitioned — a typed, actionable abort, never a silent
//     shortfall.
//
// Everything is deterministic: holders, trees and covers are derived
// from sorted rank order, so equal inputs yield identical plans.
package replan

import (
	"errors"
	"fmt"
	"sort"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/verify"
)

// Typed failures: callers (exec, the chaos harness) distinguish these
// with errors.Is.
var (
	// ErrPartitioned means the surviving topology cannot route required
	// data to a surviving rank the operator obligates.
	ErrPartitioned = errors.New("replan: surviving topology is partitioned")
	// ErrUnrecoverable means no surviving rank remains to carry the
	// collective.
	ErrUnrecoverable = errors.New("replan: no surviving ranks")
)

// Plan is a repair plan.
type Plan struct {
	// Algo is the repair algorithm: transfers completing the degraded
	// postcondition from the holdings' state (its Initial matrix is the
	// holdings' validity). Nil when nothing needs to move.
	Algo *ir.Algorithm
	// Target[c] is the achievable contribution set of chunk c; Lost[c]
	// is its complement — contributions permanent failures made
	// unrecoverable. Target/Lost follow reduce semantics; for copy
	// operators Lost[c] is the chunk's origin when no copy survives.
	Target []verify.Set
	Lost   []verify.Set
	// LostChunks lists chunks with a nonzero Lost set, ascending.
	LostChunks []ir.ChunkID
}

// maxExactCover bounds the exact disjoint-cover search; larger holder
// sets fall back to a deterministic greedy pass.
const maxExactCover = 20

// Build plans the repair. name labels the emitted algorithm.
func Build(name string, h *verify.Holdings, tp *topo.Topology) (*Plan, error) {
	if h.NRanks != tp.NRanks() {
		return nil, fmt.Errorf("replan: holdings have %d ranks but topology has %d", h.NRanks, tp.NRanks())
	}
	alive := tp.AliveRanks()
	if len(alive) == 0 {
		return nil, ErrUnrecoverable
	}
	b := &builder{
		h: h, tp: tp, alive: alive,
		inTrees: make(map[ir.Rank]*tree),
		plan: &Plan{
			Target: make([]verify.Set, h.NChunks),
			Lost:   make([]verify.Set, h.NChunks),
		},
	}
	for c := 0; c < h.NChunks; c++ {
		if err := b.planChunk(ir.ChunkID(c)); err != nil {
			return nil, err
		}
	}
	for c := 0; c < h.NChunks; c++ {
		if !b.plan.Lost[c].Empty() {
			b.plan.LostChunks = append(b.plan.LostChunks, ir.ChunkID(c))
		}
	}
	if len(b.transfers) > 0 {
		initial := make([][]bool, h.NRanks)
		for r := 0; r < h.NRanks; r++ {
			initial[r] = make([]bool, h.NChunks)
			for c := 0; c < h.NChunks; c++ {
				initial[r][c] = h.Valid(ir.Rank(r), ir.ChunkID(c))
			}
		}
		b.plan.Algo = &ir.Algorithm{
			Name:      name + "+repair",
			Op:        h.Op,
			NRanks:    h.NRanks,
			NChunks:   h.NChunks,
			Transfers: b.transfers,
			Initial:   initial,
		}
		if err := b.plan.Algo.Validate(); err != nil {
			return nil, fmt.Errorf("replan: internal: emitted invalid repair plan: %w", err)
		}
	}
	return b.plan, nil
}

type builder struct {
	h     *verify.Holdings
	tp    *topo.Topology
	alive []ir.Rank
	// inTrees memoizes shortest-path in-trees per aggregation root.
	inTrees   map[ir.Rank]*tree
	transfers []ir.Transfer
	step      ir.Step
	plan      *Plan
}

func (b *builder) emit(src, dst ir.Rank, c ir.ChunkID, typ ir.CommType) {
	b.transfers = append(b.transfers, ir.Transfer{
		Src: src, Dst: dst, Step: b.step, Chunk: c, Type: typ,
	})
	// Every transfer takes its own global step: data dependencies only
	// bind same-(rank, chunk) accesses, so unique steps give the DAG an
	// unambiguous order without serialising independent chunks.
	b.step++
}

func (b *builder) canSend(src, dst ir.Rank) bool { return b.tp.PathAlive(src, dst) }

// tree is a shortest-path tree over the alive ranks.
type tree struct {
	// parent[r] is the next hop (toward the root for in-trees, from the
	// root for out-trees); -1 when r is the root or unreachable.
	parent []ir.Rank
	dist   []int // -1 when unreachable
}

// newTree returns a tree over n ranks with every rank unreachable.
func newTree(n int) *tree {
	t := &tree{parent: make([]ir.Rank, n), dist: make([]int, n)}
	for i := range t.parent {
		t.parent[i] = -1
		t.dist[i] = -1
	}
	return t
}

// inTree builds (and memoizes) the in-tree toward root: parent[x] is the
// rank x forwards to on a shortest alive path to root.
func (b *builder) inTree(root ir.Rank) *tree {
	if t, ok := b.inTrees[root]; ok {
		return t
	}
	t := newTree(b.h.NRanks)
	t.dist[root] = 0
	queue := []ir.Rank{root}
	for len(queue) > 0 {
		y := queue[0]
		queue = queue[1:]
		for _, x := range b.alive {
			if x == y || t.dist[x] >= 0 || !b.canSend(x, y) {
				continue
			}
			t.dist[x] = t.dist[y] + 1
			t.parent[x] = y
			queue = append(queue, x)
		}
	}
	b.inTrees[root] = t
	return t
}

// outTree builds the out-tree from root: parent[x] is the rank that
// forwards to x on a shortest alive path from root.
func (b *builder) outTree(root ir.Rank) *tree {
	t := newTree(b.h.NRanks)
	t.dist[root] = 0
	queue := []ir.Rank{root}
	for len(queue) > 0 {
		y := queue[0]
		queue = queue[1:]
		for _, x := range b.alive {
			if x == y || t.dist[x] >= 0 || !b.canSend(y, x) {
				continue
			}
			t.dist[x] = t.dist[y] + 1
			t.parent[x] = y
			queue = append(queue, x)
		}
	}
	return t
}

// multiOutTree runs a multi-source BFS from every source at distance 0.
func (b *builder) multiOutTree(sources []ir.Rank) *tree {
	t := newTree(b.h.NRanks)
	queue := append([]ir.Rank(nil), sources...)
	for _, s := range sources {
		t.dist[s] = 0
	}
	for len(queue) > 0 {
		y := queue[0]
		queue = queue[1:]
		for _, x := range b.alive {
			if x == y || t.dist[x] >= 0 || !b.canSend(y, x) {
				continue
			}
			t.dist[x] = t.dist[y] + 1
			t.parent[x] = y
			queue = append(queue, x)
		}
	}
	return t
}

func (b *builder) planChunk(c ir.ChunkID) error {
	op, n := b.h.Op, b.h.NRanks
	var need []ir.Rank
	for _, r := range b.alive {
		if verify.Obligated(op, r, c, n) {
			need = append(need, r)
		}
	}
	if len(need) == 0 {
		// The chunk's only consumer is dead: nothing to do, nothing to
		// declare.
		return nil
	}
	switch op {
	case ir.OpAllReduce:
		return b.planReduce(c, need[0], true)
	case ir.OpReduceScatter:
		return b.planReduce(c, need[0], false)
	case ir.OpAllGather, ir.OpBroadcast, ir.OpAllToAll:
		return b.planCopy(c, verify.Origin(op, 0, c, n), need)
	default:
		return fmt.Errorf("replan: unknown operator %v", op)
	}
}

// planReduce aggregates the best disjoint cover of surviving holdings of
// chunk c along the in-tree to root, then (for AllReduce) disseminates
// the result along the out-tree to every surviving rank.
func (b *builder) planReduce(c ir.ChunkID, root ir.Rank, disseminate bool) error {
	in := b.inTree(root)

	// Candidate holders: alive, valid, able to reach the root.
	// Contributions stranded on unreachable holders are lost, not fatal
	// — inputs may be lost, consumers may not (see package comment).
	var holders []ir.Rank
	var sets []verify.Set
	for _, r := range b.alive {
		if b.h.Valid(r, c) && in.dist[r] >= 0 {
			holders = append(holders, r)
			sets = append(sets, b.h.Set(r, c))
		}
	}
	target, chosen := bestCover(sets)
	b.plan.Target[c] = target
	b.plan.Lost[c] = verify.FullSet(b.h.NRanks).AndNot(target)
	if target.Empty() {
		return nil
	}

	// Aggregate: deepest nodes first, each forwarding its accumulated
	// content to its parent. The first delivery into a parent without
	// content is a plain recv (replacing junk or an unselected holding);
	// later deliveries reduce. Selected sets are pairwise disjoint, so
	// no contribution is ever counted twice.
	has := make([]bool, b.h.NRanks)
	for _, i := range chosen {
		has[holders[i]] = true
	}
	order := append([]ir.Rank(nil), b.alive...)
	sort.SliceStable(order, func(i, j int) bool { return in.dist[order[i]] > in.dist[order[j]] })
	for _, x := range order {
		if x == root || !has[x] || in.dist[x] < 0 {
			continue
		}
		p := in.parent[x]
		typ := ir.CommRecvReduceCopy
		if !has[p] {
			typ = ir.CommRecv
		}
		b.emit(x, p, c, typ)
		has[p] = true
	}

	if !disseminate {
		return nil
	}
	out := b.outTree(root)
	// Shallow nodes first so every sender already holds the result.
	order = order[:0]
	for _, r := range b.alive {
		if r != root {
			order = append(order, r)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return out.dist[order[i]] < out.dist[order[j]] })
	for _, x := range order {
		if out.dist[x] < 0 {
			return fmt.Errorf("%w: chunk %d: surviving rank %d is unreachable from aggregation root %d",
				ErrPartitioned, c, x, root)
		}
		b.emit(out.parent[x], x, c, ir.CommRecv)
	}
	return nil
}

// planCopy routes chunk c's surviving copy (origin contribution o) to
// every rank in need along a multi-source BFS forest from the holders.
func (b *builder) planCopy(c ir.ChunkID, o ir.Rank, need []ir.Rank) error {
	want := verify.SetOf(o)
	var holders []ir.Rank
	for _, r := range b.alive {
		if b.h.Valid(r, c) && b.h.Set(r, c).Equal(want) {
			holders = append(holders, r)
		}
	}
	if len(holders) == 0 {
		// The last copy died with its holders: the chunk is lost.
		b.plan.Target[c] = nil
		b.plan.Lost[c] = want
		return nil
	}
	b.plan.Target[c] = want
	t := b.multiOutTree(holders)
	for _, x := range need {
		if t.dist[x] < 0 {
			return fmt.Errorf("%w: chunk %d: surviving rank %d is unreachable from any holder of the chunk",
				ErrPartitioned, c, x)
		}
	}
	// Mark every node on a path to a needy rank, then emit the marked
	// subtree shallow-first: relays receive before they forward, and
	// unneeded branches stay silent.
	marked := make([]bool, b.h.NRanks)
	for _, x := range need {
		for r := x; r >= 0 && !marked[r]; r = t.parent[r] {
			marked[r] = true
		}
	}
	order := append([]ir.Rank(nil), b.alive...)
	sort.SliceStable(order, func(i, j int) bool { return t.dist[order[i]] < t.dist[order[j]] })
	for _, x := range order {
		if !marked[x] || t.dist[x] == 0 {
			continue
		}
		b.emit(t.parent[x], x, c, ir.CommRecv)
	}
	return nil
}

// bestCover selects the pairwise-disjoint subset of sets with maximum
// total coverage, preferring (deterministically) the lexicographically
// earliest selection among maxima. Beyond maxExactCover candidates it
// switches to a greedy pass (largest set first, ascending index on
// ties), which is still deterministic.
func bestCover(sets []verify.Set) (verify.Set, []int) {
	if len(sets) > maxExactCover {
		return greedyCover(sets)
	}
	// suffixUnion[i] bounds what indices ≥ i can still add.
	suffixUnion := make([]verify.Set, len(sets)+1)
	for i := len(sets) - 1; i >= 0; i-- {
		suffixUnion[i] = suffixUnion[i+1].Or(sets[i])
	}
	var best verify.Set
	var bestChosen []int
	var chosen []int
	var dfs func(i int, acc verify.Set)
	dfs = func(i int, acc verify.Set) {
		if acc.Count() > best.Count() {
			best = acc
			bestChosen = append(bestChosen[:0], chosen...)
		}
		if i == len(sets) || acc.Or(suffixUnion[i]).Count() <= best.Count() {
			return
		}
		if !acc.Intersects(sets[i]) {
			chosen = append(chosen, i)
			dfs(i+1, acc.Or(sets[i]))
			chosen = chosen[:len(chosen)-1]
		}
		dfs(i+1, acc)
	}
	dfs(0, nil)
	return best, bestChosen
}

func greedyCover(sets []verify.Set) (verify.Set, []int) {
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sets[order[a]].Count() > sets[order[b]].Count()
	})
	var acc verify.Set
	var chosen []int
	for _, i := range order {
		if !acc.Intersects(sets[i]) && !sets[i].Empty() {
			acc = acc.Or(sets[i])
			chosen = append(chosen, i)
		}
	}
	sort.Ints(chosen)
	return acc, chosen
}
