package backend

import (
	"context"
	"runtime"
	"slices"
	"testing"
)

// retainedHeap returns the plans build returns and the heap each
// retains: the live heap after a collection with all of them held,
// minus the live heap before build first ran, per plan. Holding several
// copies averages out the few stray bytes the runtime allocates
// meanwhile; two collections on each side also empty the sync.Pool
// victim caches, which a single collection leaves live.
func retainedHeap(copies int, build func() *Plan) (*Plan, int64) {
	plans := make([]*Plan, copies)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range plans {
		plans[i] = build()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return plans[0], (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(copies)
}

// compileOwned compiles c on a private copy of its algorithm, so the
// plan owns every array it refers to except the shared topology, as a
// plan the cache holds for a request that has gone away does.
func compileOwned(t *testing.T, c planCase) *Plan {
	t.Helper()
	a := *c.req.Algo
	a.Transfers, a.StageBounds = slices.Clone(a.Transfers), slices.Clone(a.StageBounds)
	req := c.req
	req.Algo = &a
	p, err := c.b.Compile(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return p
}

// TestPlanBytesMatchesRetainedHeap holds the cache's byte budget to the
// heap a plan really retains: planBytes stays within ±10% of the
// measured retained heap on every plan of the saved-plan corpus, the
// three backends' registry plans on 1×8, 2×8 and 4×4 and the 512-rank
// plan.
func TestPlanBytesMatchesRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap measurements")
	}
	const tolerance = 0.10
	for _, c := range planCorpus(t) {
		compileOwned(t, c) // warm up the topology's and compile's lazily built tables
		copies := 8
		if c.req.Topo.NRanks() > 64 {
			copies = 1 // a 512-rank plan alone dwarfs the stray bytes
		}
		p, retained := retainedHeap(copies, func() *Plan { return compileOwned(t, c) })
		got := planBytes(p)
		ratio := float64(got) / float64(retained)
		t.Logf("%s: planBytes %d, retained %d (%.3f)", c.name, got, retained, ratio)
		if ratio < 1-tolerance || ratio > 1+tolerance {
			t.Errorf("%s: planBytes %d is %.3f× the retained heap %d, want within ±%.0f%%",
				c.name, got, ratio, retained, tolerance*100)
		}
	}
}
