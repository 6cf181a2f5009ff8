package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Cells must execute every index exactly once in both modes and return
// the lowest-indexed error regardless of completion order.
func TestCells(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		hit := make([]atomic.Bool, 100)
		if err := Cells(context.Background(), workers, len(hit), func(i int) error {
			if hit[i].Swap(true) {
				t.Errorf("cell %d ran twice", i)
			}
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 100 {
			t.Errorf("workers=%d: ran %d cells, want 100", workers, ran.Load())
		}

		errLow, errHigh := errors.New("low"), errors.New("high")
		err := Cells(context.Background(), workers, 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		// Serial mode stops at the first failure; parallel mode finishes
		// the batch. Both must surface the lowest-indexed error.
		if err != errLow {
			t.Errorf("workers=%d: got error %v, want lowest-indexed %v", workers, err, errLow)
		}
	}

	if err := Cells(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero cells must be a no-op, got %v", err)
	}
	if got := Workers(false, 8); got != 1 {
		t.Errorf("Workers(false, 8) = %d, want 1", got)
	}
	if got := Workers(true, 0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(true, 0) = %d, want GOMAXPROCS", got)
	}
}

// Once ctx is done the pool hands out no further cell, returns ctx's
// error, and leaves no goroutine behind.
func TestCellsStopAtCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := Cells(ctx, workers, 1000, func(i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// Each worker may finish the cell it already holds.
		if n := ran.Load(); n < 10 || n > int64(9+workers) {
			t.Errorf("workers=%d: ran %d cells after cancelling at the 10th", workers, n)
		}
	}

	// A cell error below the cancellation point still wins.
	ctx, cancel := context.WithCancel(context.Background())
	errCell := errors.New("cell 2")
	err := Cells(ctx, 1, 10, func(i int) error {
		if i == 2 {
			cancel()
			return errCell
		}
		return nil
	})
	cancel()
	if err != errCell {
		t.Errorf("got %v, want the failing cell's error", err)
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPruneMatchesSimulatingEveryCell compares Prune with an oracle that
// simulates every cell, over seeded random cases: few distinct scores
// and bounds (ties and equal bounds), keep counts larger than a group,
// prior scores, and bounds equal to their completions or above them
// within cert.BelowBound's noise. Every cell that could rank among its
// group's k best, under any tie-break, must run and report the oracle's
// score; so the top k under the callers' (score, index) tie-break is
// the oracle's. Some cells share a plan, in one group or across groups:
// each plan is simulated at most once, every cell that ran reports its
// plan's completion, and the cells that ran are those an identity-blind
// run picks.
func TestPruneMatchesSimulatingEveryCell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	skipped, shared := 0, 0
	for trial := 0; trial < 2000; trial++ {
		groups, k := 1+rng.Intn(4), 1+rng.Intn(5)
		cells := make([]Bounded, rng.Intn(24))
		completion := make([]float64, len(cells))
		// plans[p] is the first cell of plan p+1; a cell that draws an
		// existing plan copies its completion and bound, as cells whose
		// algorithms compile to the same plan would have.
		var plans []int
		for i := range cells {
			if len(plans) > 0 && rng.Intn(3) == 0 {
				p := rng.Intn(len(plans))
				src := plans[p]
				completion[i] = completion[src]
				cells[i] = Bounded{Group: rng.Intn(groups), Bound: cells[src].Bound, Plan: cells[src].Plan, Name: fmt.Sprint(i)}
				continue
			}
			completion[i] = float64(1 + rng.Intn(6))
			bound := completion[i]
			switch rng.Intn(4) {
			case 0:
				bound = float64(1 + rng.Intn(int(completion[i])))
			case 1:
				bound *= 1 + 1e-9
			case 2:
				bound *= 0.5 + 0.5*rng.Float64()
			}
			cells[i] = Bounded{Group: rng.Intn(groups), Bound: bound, Name: fmt.Sprint(i)}
			if rng.Intn(2) == 0 {
				plans = append(plans, i)
				cells[i].Plan = PlanID{Bytes: int64(len(plans))}
			}
		}
		prior := make([][]float64, rng.Intn(groups+1))
		for g := range prior {
			for j := rng.Intn(k + 2); j > 0; j-- {
				prior[g] = append(prior[g], float64(1+rng.Intn(6)))
			}
		}
		workers := 1 + 3*rng.Intn(2)

		calls := make([]atomic.Int32, len(cells))
		ran, scores, err := Prune(context.Background(), workers, k, cells, prior, nil, func(i int) (float64, error) {
			calls[i].Add(1)
			return completion[i], nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		blind := slices.Clone(cells)
		for i := range blind {
			blind[i].Plan = PlanID{}
		}
		ranBlind, _, err := Prune(context.Background(), workers, k, blind, prior, nil, func(i int) (float64, error) {
			return completion[i], nil
		})
		if err != nil {
			t.Fatalf("trial %d, identity-blind: %v", trial, err)
		}
		if !slices.Equal(ran, ranBlind) {
			t.Fatalf("trial %d: cells ran %v, an identity-blind run ran %v", trial, ran, ranBlind)
		}

		for g := 0; g < groups; g++ {
			var all []float64
			var members []int
			if g < len(prior) {
				all = append(all, prior[g]...)
			}
			for i, c := range cells {
				if c.Group == g {
					all = append(all, completion[i])
					members = append(members, i)
				}
			}
			slices.Sort(all)
			cut := math.Inf(1)
			if len(all) >= k {
				cut = all[k-1]
			}
			for _, i := range members {
				if completion[i] <= cut && !ran[i] {
					t.Fatalf("trial %d (k=%d): cell %d of group %d scores %g, within the group's k-th best %g, but was skipped (bound %g)",
						trial, k, i, g, completion[i], cut, cells[i].Bound)
				}
			}
			// The callers' tie-break is (score, index). Prior score j has
			// index -1-j and goes after the cells it ties, the order least
			// kind to pruning.
			score := func(i int) float64 {
				if i < 0 {
					return prior[g][-1-i]
				}
				return completion[i]
			}
			isPrior := func(i int) bool { return i < 0 }
			top := func(simulated bool) []int {
				var idx []int
				if g < len(prior) {
					for j := range prior[g] {
						idx = append(idx, -1-j)
					}
				}
				for _, i := range members {
					if !simulated || ran[i] {
						idx = append(idx, i)
					}
				}
				slices.SortFunc(idx, func(a, b int) int {
					if c := cmp.Compare(score(a), score(b)); c != 0 {
						return c
					}
					if isPrior(a) != isPrior(b) {
						if isPrior(a) {
							return 1
						}
						return -1
					}
					return cmp.Compare(a, b)
				})
				return idx[:min(k, len(idx))]
			}
			if got, want := top(true), top(false); !slices.Equal(got, want) {
				t.Fatalf("trial %d: group %d's top %d is %v, simulating every cell gives %v", trial, g, k, got, want)
			}
		}
		simulated, used := map[PlanID]int32{}, map[PlanID]bool{}
		for i, c := range cells {
			n := calls[i].Load()
			if n > 1 || (n == 1 && !ran[i]) || (c.Plan == PlanID{} && (n == 1) != ran[i]) {
				t.Fatalf("trial %d: cell %d simulated %d times, reported %v", trial, i, n, ran[i])
			}
			if c.Plan != (PlanID{}) {
				simulated[c.Plan] += n
				used[c.Plan] = used[c.Plan] || ran[i]
				if ran[i] && n == 0 {
					shared++
				}
			}
			if ran[i] && scores[i] != completion[i] {
				t.Fatalf("trial %d: cell %d reports %g, its plan completes at %g", trial, i, scores[i], completion[i])
			}
			if !ran[i] {
				skipped++
			}
		}
		for id, n := range simulated {
			if want := map[bool]int32{false: 0, true: 1}[used[id]]; n != want {
				t.Fatalf("trial %d: plan %d simulated %d times, want %d", trial, id.Bytes, n, want)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no case skipped a cell; the test exercises nothing")
	}
	if shared == 0 {
		t.Fatal("no cell took a shared plan's completion; the test exercises nothing")
	}
}

// A completion below its cell's bound, beyond float noise, is an
// unsound bound: Prune fails and names the cell.
func TestPruneRejectsUnsoundBound(t *testing.T) {
	cells := []Bounded{{Group: 0, Bound: 1, Name: "first"}, {Group: 0, Bound: 2, Name: "second"}}
	_, _, err := Prune(context.Background(), 1, 2, cells, nil, nil, func(i int) (float64, error) { return 1.5, nil })
	if err == nil || !strings.Contains(err.Error(), "unsound lower bound for second") {
		t.Fatalf("got %v, want an unsound-bound error naming the second cell", err)
	}
	errSim := errors.New("simulator failed")
	if _, _, err := Prune(context.Background(), 1, 1, cells, nil, nil, func(int) (float64, error) { return 0, errSim }); err != errSim {
		t.Fatalf("got %v, want the simulator's error", err)
	}
}
