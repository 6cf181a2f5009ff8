package exec

import (
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/ir"
)

// Workers is the pool width a caller's Parallel and Workers options ask
// for: 1 (serial) unless parallel is set, else workers, where zero or
// less means GOMAXPROCS.
func Workers(parallel bool, workers int) int {
	if !parallel {
		return 1
	}
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Cells runs cell(0), …, cell(n-1) on a deterministic worker pool of at
// most workers goroutines, serially when workers < 2. Cells write their
// results into slots the caller indexed beforehand, so a parallel run
// assembles output identical to a serial one. Cells are handed out in
// index order, and none is handed out once ctx is done; a nil ctx never
// cancels. The error returned is the lowest-indexed cell's error in
// both modes, else ctx's error if any cell was never handed out.
func Cells(ctx context.Context, workers, n int, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	if workers < 2 || n == 1 {
		for i := 0; i < n; i++ {
			if done() {
				return ctx.Err()
			}
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	// Every claimed index below n ran; the cells never handed out are
	// those at or above the claim count.
	handed := min(int(next.Load()), n)
	for _, err := range errs[:handed] {
		if err != nil {
			return err
		}
	}
	if handed < n {
		return ctx.Err()
	}
	return nil
}

// Bounded is one cell of a bound-pruned simulation (Prune).
type Bounded struct {
	// Group is the cell's group, counted from 0.
	Group int
	// Bound is a certified lower bound on the cell's completion.
	Bound float64
	// Plan is what simulating the cell computes. The zero Plan matches
	// no other cell.
	Plan PlanID
	// Name labels the cell in an unsound-bound error.
	Name string
}

// PlanID names one simulation independently of what the algorithm is
// called: its content (backend.Content), tier and per-rank size. On one
// backend and topology, cells with equal PlanIDs compile to plans that
// simulate to the same completion.
type PlanID struct {
	Algo     [sha256.Size]byte
	Protocol ir.Protocol
	Bytes    int64
}

// Prune simulates the cells that may rank among their group's k best
// completions and skips the rest, in two waves on a pool of at most
// workers goroutines (Cells). prior[g] holds the scores group g already
// has from elsewhere; prior may be shorter than the group count.
//   - Wave 1 simulates each group's k lowest-bound cells, equal bounds
//     going to the lower index.
//   - Wave 2 simulates every other cell whose bound is not above its
//     group's k-th best score among prior and wave 1 (cert.BelowBound
//     absorbs float noise), and every other cell of a group that holds
//     fewer than k scores.
//
// A skipped cell completes strictly later than k scores its group
// holds, so each group's k best completions, under any tie-break, are
// simulated. That needs every bound to be sound: a completion below its
// bound fails the call.
//
// Cells that share a nonzero Plan are one simulation: simulate(i) runs
// only the first of them a wave reaches, and the others take its
// completion, so which cells run does not depend on the Plans. done
// holds the completions of Plans simulated before, by earlier calls,
// and Prune adds the Plans it simulates; nil starts empty. Prune
// returns which cells ran and their completions. Each wave simulates
// its cells in index order; k must be at least 1.
func Prune(ctx context.Context, workers, k int, cells []Bounded, prior [][]float64, done map[PlanID]float64, simulate func(i int) (float64, error)) (ran []bool, scores []float64, err error) {
	groups := len(prior)
	for _, c := range cells {
		groups = max(groups, c.Group+1)
	}
	if done == nil {
		done = map[PlanID]float64{}
	}
	ran = make([]bool, len(cells))
	scores = make([]float64, len(cells))
	run := func(wave []int) error {
		var sims []int
		lead := map[PlanID]bool{}
		for _, i := range wave {
			id := cells[i].Plan
			if _, known := done[id]; id == (PlanID{}) || !known && !lead[id] {
				lead[id] = true
				sims = append(sims, i)
			}
		}
		if err := Cells(ctx, workers, len(sims), func(j int) error {
			completion, err := simulate(sims[j])
			scores[sims[j]] = completion
			return err
		}); err != nil {
			return err
		}
		for _, i := range sims {
			if id := cells[i].Plan; id != (PlanID{}) {
				done[id] = scores[i]
			}
		}
		for _, i := range wave {
			c := cells[i]
			if c.Plan != (PlanID{}) {
				scores[i] = done[c.Plan]
			}
			if cert.BelowBound(scores[i], c.Bound) {
				return fmt.Errorf("exec: unsound lower bound for %s: simulated %g s is below the bound %g s", c.Name, scores[i], c.Bound)
			}
			ran[i] = true
		}
		return nil
	}

	byBound := make([]int, len(cells))
	for i := range byBound {
		byBound[i] = i
	}
	slices.SortStableFunc(byBound, func(a, b int) int { return cmp.Compare(cells[a].Bound, cells[b].Bound) })
	picked := make([]int, groups)
	var wave []int
	for _, i := range byBound {
		if g := cells[i].Group; picked[g] < k {
			picked[g]++
			wave = append(wave, i)
		}
	}
	slices.Sort(wave)
	if err := run(wave); err != nil {
		return nil, nil, err
	}

	held := make([][]float64, groups)
	for g, s := range prior {
		held[g] = slices.Clone(s)
	}
	for _, i := range wave {
		g := cells[i].Group
		held[g] = append(held[g], scores[i])
	}
	cut := make([]float64, groups)
	for g, s := range held {
		cut[g] = math.Inf(1)
		if len(s) >= k {
			slices.Sort(s)
			cut[g] = s[k-1]
		}
	}
	wave = wave[:0]
	for i, c := range cells {
		if !ran[i] && !cert.BelowBound(cut[c.Group], c.Bound) {
			wave = append(wave, i)
		}
	}
	if err := run(wave); err != nil {
		return nil, nil, err
	}
	return ran, scores, nil
}
