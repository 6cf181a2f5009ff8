package backend

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/topo"
)

// reqN builds a distinct cacheable request: a ring AllReduce over n
// ranks on a single-node topology of n GPUs.
func reqN(t *testing.T, n int) Request {
	t.Helper()
	algo, err := expert.RingAllReduce(n)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Algo: algo, Topo: topo.New(1, n, topo.A100())}
}

// TestCompileCancelledAllBackends proves every backend observes a
// cancelled context and returns a typed cancellation error instead of a
// plan.
func TestCompileCancelledAllBackends(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := reqN(t, 4)
	for _, b := range []Backend{NewNCCL(), NewMSCCL(), NewResCCL()} {
		plan, err := b.Compile(ctx, req)
		if plan != nil || err == nil {
			t.Fatalf("%s: cancelled compile returned plan=%v err=%v", b.Name(), plan, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not unwrap to context.Canceled", b.Name(), err)
		}
	}
}

// TestCompileDeadlineExceeded proves an expired deadline surfaces as
// context.DeadlineExceeded through the compile pipeline.
func TestCompileDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, b := range []Backend{NewNCCL(), NewMSCCL(), NewResCCL()} {
		_, err := b.Compile(ctx, reqN(t, 4))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: error %v does not unwrap to context.DeadlineExceeded", b.Name(), err)
		}
	}
}

// TestCacheCancelledCallerUncachedPath proves the uncached fall-through
// also honours cancellation.
func TestCacheCancelledCallerUncachedPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCache()
	if _, err := c.Compile(ctx, NewResCCL(), reqN(t, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cached compile with cancelled ctx: %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled compile left %d resident entries, want 0", st.Entries)
	}
}

// gatedBackend is a cacheable backend whose compile blocks until
// released, so tests can hold a singleflight open deterministically.
type gatedBackend struct {
	inner   Backend
	started chan struct{} // receives one token per compile entry
	release chan struct{} // closed/fed to let compiles finish
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{
		inner:   NewResCCL(),
		started: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
}

func (g *gatedBackend) Name() string { return "gated" }

// CompileConfig opts the gate into cache admission (backend.Configurer).
func (g *gatedBackend) CompileConfig() (string, bool) { return "gated", true }

func (g *gatedBackend) Compile(ctx context.Context, req Request) (*Plan, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Compile(ctx, req)
}

func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightCancelledLeader is the satellite contract: a cancelled
// singleflight leader must neither cache a partial plan nor fail waiters
// that still have budget. The follower must receive the finished plan,
// and the plan must land in the cache.
func TestSingleflightCancelledLeader(t *testing.T) {
	gb := newGatedBackend()
	c := NewCache()
	req := reqN(t, 4)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.CompileNoted(leaderCtx, gb, req)
		leaderErr <- err
	}()
	<-gb.started // compile is running

	type res struct {
		plan *Plan
		hit  bool
		err  error
	}
	followerRes := make(chan res, 1)
	go func() {
		p, hit, err := c.CompileNoted(context.Background(), gb, req)
		followerRes <- res{p, hit, err}
	}()
	// The follower joins the flight as a hit; wait until it is counted.
	waitFor(t, "follower to join the flight", func() bool { return c.Stats().Hits == 1 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}

	// The leader's cancellation must not have cancelled the follower's
	// compile: releasing the gate must produce a real plan.
	close(gb.release)
	r := <-followerRes
	if r.err != nil {
		t.Fatalf("follower failed after leader cancel: %v", r.err)
	}
	if !r.hit || r.plan == nil || r.plan.Kernel == nil {
		t.Fatalf("follower got hit=%v plan=%v, want joined-flight plan", r.hit, r.plan)
	}

	// The completed plan must be cached, not poisoned by the dead leader.
	st := c.Stats()
	if st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("stats after cancelled-leader flight: %+v, want 1 entry / 1 miss", st)
	}
	again, hit, err := c.CompileNoted(context.Background(), gb, req)
	if err != nil || !hit || again != r.plan {
		t.Fatalf("re-lookup got (plan=%p hit=%v err=%v), want cached %p", again, hit, err, r.plan)
	}
}

// TestSingleflightAbandonedFlight proves that when every party cancels,
// the compile itself is cancelled, nothing is cached, and the next
// request recompiles successfully.
func TestSingleflightAbandonedFlight(t *testing.T) {
	gb := newGatedBackend()
	c := NewCache()
	req := reqN(t, 4)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.CompileNoted(ctx, gb, req)
		errc <- err
	}()
	<-gb.started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned leader returned %v, want context.Canceled", err)
	}
	// The abandoned flight's compile context is cancelled; the gated
	// backend observes it and exits without a plan. Nothing may be
	// cached.
	waitFor(t, "abandoned flight to settle", func() bool { return c.Stats().Entries == 0 })

	// A fresh request recompiles from scratch and succeeds.
	close(gb.release)
	plan, hit, err := c.CompileNoted(context.Background(), gb, req)
	<-gb.started // the retry re-entered the backend
	if err != nil || hit || plan == nil {
		t.Fatalf("recompile after abandonment: plan=%v hit=%v err=%v", plan, hit, err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats after abandonment+recompile: %+v, want 2 misses / 1 entry", st)
	}
}

// TestCacheEntryBoundEviction proves the LRU entry bound holds and
// evicted keys recompile as misses.
func TestCacheEntryBoundEviction(t *testing.T) {
	c := NewCacheWith(CacheConfig{MaxEntries: 2, Shards: 1})
	b := NewResCCL()
	reqs := []Request{reqN(t, 2), reqN(t, 4), reqN(t, 8)}
	for _, r := range reqs {
		if _, err := c.Compile(context.Background(), b, r); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts with bound 2: %+v, want 2 entries / 1 eviction", st)
	}
	// The oldest request was evicted: requesting it again is a miss.
	if _, hit, err := c.CompileNoted(context.Background(), b, reqs[0]); err != nil || hit {
		t.Fatalf("evicted key served hit=%v err=%v, want recompile", hit, err)
	}
	// The most recent request is still resident.
	if _, hit, err := c.CompileNoted(context.Background(), b, reqs[2]); err != nil || !hit {
		t.Fatalf("resident key served hit=%v err=%v, want hit", hit, err)
	}
}

// TestCacheByteBoundEviction proves the byte bound evicts older plans
// while always keeping the newest resident.
func TestCacheByteBoundEviction(t *testing.T) {
	c := NewCacheWith(CacheConfig{MaxBytes: 1, Shards: 1})
	b := NewResCCL()
	for _, r := range []Request{reqN(t, 2), reqN(t, 4)} {
		if _, err := c.Compile(context.Background(), b, r); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("byte-bound cache: %+v, want 1 entry / 1 eviction", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("resident bytes %d, want > 0", st.Bytes)
	}
}

// TestFingerprintFabricTiers pins the collision fix: flat, clos and rail
// fabrics of the same shape must have distinct plan-cache fingerprints.
func TestFingerprintFabricTiers(t *testing.T) {
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	prof := topo.A100()
	tps := []*topo.Topology{
		topo.New(2, 4, prof),
		topo.NewClos(2, 4, prof, 2),
		topo.NewRail(2, 4, prof, 2),
	}
	seen := make(map[[32]byte]int)
	for i, tp := range tps {
		key, ok := fingerprint(NewResCCL(), Request{Algo: algo, Topo: tp})
		if !ok {
			t.Fatalf("topology %d not fingerprintable", i)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("fabric %d and %d share a fingerprint (cache collision)", prev, i)
		}
		seen[key] = i
	}
}

// instantBackend is a cacheable backend that returns a precompiled plan
// at once, so a flight it serves can finish before its caller waits.
type instantBackend struct{ plan *Plan }

func (b instantBackend) Name() string                                    { return "instant" }
func (b instantBackend) CompileConfig() (string, bool)                   { return "instant", true }
func (b instantBackend) Compile(context.Context, Request) (*Plan, error) { return b.plan, nil }

// TestCacheCancelledCallerNeverGetsPlan repeats a pre-cancelled call:
// the caller must get context.Canceled every time — never a plan with a
// nil error, however fast the compile it would have started finishes —
// and nothing may become resident.
func TestCacheCancelledCallerNeverGetsPlan(t *testing.T) {
	req := reqN(t, 4)
	plan, err := NewResCCL().Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCache()
	for i := 0; i < 500; i++ {
		got, _, err := c.CompileNoted(ctx, instantBackend{plan}, req)
		if got != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: cancelled caller got plan=%v err=%v, want context.Canceled", i, got != nil, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled callers left %d resident entries, want 0", st.Entries)
	}
}
