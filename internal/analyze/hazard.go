package analyze

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// The hazard pass asks: can two primitive invocations touch the same
// buffer location unordered? The happens-before relation of the runtime
// is exactly the inverse of the wait-for graph — if A waits on B, then
// B happens before A, and those semaphore/rendezvous/program-order
// edges are the ONLY ordering the runtime enforces. So the pass reuses
// the deadlock pass's graph, topologically sorts it, and checks every
// same-location access pair (at least one a write, within one
// micro-batch — each micro-batch owns a disjoint buffer) for a
// happens-before path.
//
// Pairs are checked per location along the access list in topological
// order: each access must be ordered after the most recent write, and
// each write after every read since the previous write. Ordering is
// transitive, so these O(accesses) queries cover all O(accesses²)
// write-involving pairs — if every chain query holds, any earlier
// access reaches a later one through the intervening writes, and if
// some pair is unordered, one of the chain queries fails. Each query
// runs a backward search pruned by topological position; on a
// well-formed plan the dependency that orders the pair is a direct
// wait-for edge, so queries touch a handful of nodes and the pass
// stays near-linear in plan size (the previous all-pairs ancestor
// bitsets cost O(n²/64) time and space — gigabytes at 4096 ranks).
//
// The precondition is an acyclic graph with no stranded invocations;
// Plan() skips this pass otherwise, because a deadlocked plan has no
// meaningful happens-before order to judge.

// access is one buffer-location touch by a wait-for node at topological
// position pos.
type access struct {
	rank, chunk, pos, node int32
	write                  bool
}

// reachBudget bounds the total nodes expanded across all ordering
// queries of one pass — a backstop against adversarial plans whose
// ordering paths are all indirect; real plans order same-location
// accesses through direct dependency edges and use a tiny fraction.
const reachBudget = 1 << 22

func checkHazards(w *wfGraph) []Diag {
	n := len(w.task)

	// Kahn topological order over the waits-for edges, dependencies
	// first: node A waiting on B means B must come earlier. rev[b], the
	// nodes that wait on b in ascending order, is
	// rev[revStart[b]:revStart[b+1]]: counted, carved and filled in
	// place, as the plan view's rows are.
	indeg := make([]int32, n)
	revStart := make([]int32, n+1)
	var buf []int32
	for i := range n {
		buf, _ = w.waits(buf[:0], int32(i))
		indeg[i] = int32(len(buf))
		for _, b := range buf {
			revStart[b+1]++
		}
	}
	for b := 1; b <= n; b++ {
		revStart[b] += revStart[b-1]
	}
	rev := make([]int32, revStart[n])
	for i := range n {
		buf, _ = w.waits(buf[:0], int32(i))
		for _, b := range buf {
			rev[revStart[b]] = int32(i)
			revStart[b]++
		}
	}
	copy(revStart[1:], revStart)
	revStart[0] = 0
	order := make([]int32, 0, n)
	for i := range n {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for qi := 0; qi < len(order); qi++ {
		b := order[qi]
		for _, a := range rev[revStart[b]:revStart[b+1]] {
			if indeg[a]--; indeg[a] == 0 {
				order = append(order, a)
			}
		}
	}
	if len(order) < n {
		// Cycle slipped through (caller skipped the deadlock pass):
		// happens-before is undefined, so report nothing rather than lie.
		return []Diag{{Code: "hazard", Severity: SevInfo,
			Message: "hazard analysis skipped: wait-for graph is cyclic"}}
	}
	pos := make([]int32, n)
	for i, nd := range order {
		pos[nd] = int32(i)
	}

	// ordered(a, b) reports a happens-before path a → b, given
	// pos[a] < pos[b]: search backward from b along the waits-for edges,
	// pruning nodes positioned before a (every edge strictly decreases
	// position, so nothing there can lead back to a). Visited stamps are
	// generation-counted to keep queries allocation-free.
	visited := make([]int32, n)
	gen := int32(0)
	queue := make([]int32, 0, 64)
	budget := reachBudget
	ordered := func(a, b int32) bool {
		gen++
		queue = append(queue[:0], b)
		visited[b] = gen
		for qi := 0; qi < len(queue); qi++ {
			buf, _ = w.waits(buf[:0], queue[qi])
			for _, x := range buf {
				if x == a {
					return true
				}
				if pos[x] <= pos[a] || visited[x] == gen {
					continue
				}
				visited[x] = gen
				queue = append(queue, x)
				budget--
			}
		}
		return false
	}

	// Collect accesses: at the rendezvous meeting the send side reads
	// (Src, Chunk) and the recv side writes (Dst, Chunk) — an rrc also
	// reads what it merges into, but read+write at one node adds nothing
	// to the pair analysis. Micro-batches are isomorphic, so only
	// micro-batch 0 locations are checked (one report per pair). Listed
	// in topological order and then stably placed by location, each
	// location's accesses form one run, in topological order.
	var listed []access
	for _, i := range order {
		_, hasSend := w.side(i, false)
		_, hasRecv := w.side(i, true)
		if !hasSend || !hasRecv || w.mb(i) != 0 {
			continue
		}
		tr := w.v.g.Tasks[w.task[i]].Transfer
		listed = append(listed,
			access{int32(tr.Src), int32(tr.Chunk), pos[i], i, false},
			access{int32(tr.Dst), int32(tr.Chunk), pos[i], i, true})
	}
	at := make([]int32, len(listed))
	for k := range at {
		at[k] = int32(k)
	}
	ir.RadixSort(at,
		func(k int32) int { return int(listed[k].rank) },
		func(k int32) int { return int(listed[k].chunk) })
	accs := make([]access, len(listed))
	for k, i := range at {
		accs[k] = listed[i]
	}

	var ds []Diag
	seen := make(map[[2]ir.TaskID]bool)
	report := func(loc access, a, b int32, ww bool) {
		ta, tb := ir.TaskID(w.task[a]), ir.TaskID(w.task[b])
		pair := [2]ir.TaskID{ta, tb}
		if tb < ta {
			pair = [2]ir.TaskID{tb, ta}
		}
		if seen[pair] {
			return
		}
		seen[pair] = true
		kind := "hazard-rw"
		if ww {
			kind = "hazard-ww"
		}
		ds = append(ds, Diag{Code: kind, Severity: SevError,
			Message: fmt.Sprintf("rank %d chunk %d: %s and %s are unordered under happens-before",
				loc.rank, loc.chunk, w.v.k.DescribeTask(pair[0]), w.v.k.DescribeTask(pair[1])),
			Tasks: []ir.TaskID{pair[0], pair[1]}})
	}
	reads := make([]int32, 0, 16)
	for lo, hi := 0, 0; lo < len(accs); lo = hi {
		for hi = lo + 1; hi < len(accs) && accs[hi].rank == accs[lo].rank && accs[hi].chunk == accs[lo].chunk; hi++ {
		}
		key, list := accs[lo], accs[lo:hi]
		lastWrite := int32(-1)
		reads = reads[:0]
		for _, ac := range list {
			if budget <= 0 {
				return append(ds, Diag{Code: "hazard", Severity: SevInfo,
					Message: "hazard analysis truncated: ordering-query budget exhausted; remaining access pairs unchecked"})
			}
			if ac.write {
				if lastWrite >= 0 && ac.node != lastWrite && !ordered(lastWrite, ac.node) {
					report(key, lastWrite, ac.node, true)
				}
				for _, r := range reads {
					if r != ac.node && !ordered(r, ac.node) {
						report(key, r, ac.node, false)
					}
				}
				lastWrite = ac.node
				reads = reads[:0]
			} else {
				if lastWrite >= 0 && ac.node != lastWrite && !ordered(lastWrite, ac.node) {
					report(key, lastWrite, ac.node, false)
				}
				reads = append(reads, ac.node)
			}
		}
	}
	return ds
}
