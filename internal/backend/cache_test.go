package backend

import (
	"context"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

func cacheTestRequest(t *testing.T) Request {
	t.Helper()
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Algo: algo, Topo: topo.New(2, 4, topo.A100())}
}

// A cached Compile must return a plan deep-equal to a fresh compile, for
// all three backends, and the second lookup must be a pointer-identical
// hit.
func TestCacheMatchesFreshCompile(t *testing.T) {
	req := cacheTestRequest(t)
	for _, b := range []Backend{NewNCCL(), NewMSCCL(), NewResCCL()} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			fresh, err := b.Compile(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCache()
			first, err := c.Compile(context.Background(), b, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Kernel, first.Kernel) {
				t.Error("cached compile kernel differs from fresh compile")
			}
			if fresh.Backend != first.Backend {
				t.Errorf("backend label %q != %q", first.Backend, fresh.Backend)
			}
			second, err := c.Compile(context.Background(), b, req)
			if err != nil {
				t.Fatal(err)
			}
			if second != first {
				t.Error("second lookup should return the cached plan pointer")
			}
			st := c.Stats()
			if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
				t.Errorf("stats = %+v, want 1 miss / 1 hit / 1 entry", st)
			}
		})
	}
}

// Distinct algorithms, topologies and backend configurations must map to
// distinct cache entries.
func TestCacheKeyDiscriminates(t *testing.T) {
	req := cacheTestRequest(t)
	c := NewCache()
	base, err := c.Compile(context.Background(), NewMSCCL(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Different topology profile.
	other := req
	other.Topo = topo.New(2, 4, topo.V100())
	if p, err := c.Compile(context.Background(), NewMSCCL(), other); err != nil {
		t.Fatal(err)
	} else if p == base {
		t.Error("different profile must not share the cache entry")
	}

	// Structurally different algorithm (stage annotations stripped, as
	// the granularity ablation does).
	lazy := *req.Algo
	lazy.StageBounds = nil
	lazyReq := Request{Algo: &lazy, Topo: req.Topo}
	if p, err := c.Compile(context.Background(), NewMSCCL(), lazyReq); err != nil {
		t.Fatal(err)
	} else if p == base {
		t.Error("different stage bounds must not share the cache entry")
	}

	// Different backend configuration.
	if p, err := c.Compile(context.Background(), &MSCCL{Instances: 2}, req); err != nil {
		t.Fatal(err)
	} else if p == base {
		t.Error("different instance count must not share the cache entry")
	}

	if st := c.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 4 misses / 0 hits", st)
	}
}

// Two requests differing only in protocol tier must compile to distinct
// cache entries on every backend — a forced-LL plan and an auto plan
// never collide, even though the transfer set is identical.
func TestCacheKeyDiscriminatesProtocol(t *testing.T) {
	for _, b := range []Backend{NewNCCL(), NewMSCCL(), NewResCCL()} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			c := NewCache()
			req := cacheTestRequest(t)
			auto, _, err := c.CompileNoted(context.Background(), b, req)
			if err != nil {
				t.Fatal(err)
			}
			forced := req
			forced.Protocol = ir.ProtoLL
			ll, hit, err := c.CompileNoted(context.Background(), b, forced)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Error("forced-LL request hit the auto entry")
			}
			if ll == auto {
				t.Error("forced-LL plan shares the auto plan's cache entry")
			}
			if ll.Kernel.Protocol != ir.ProtoLL || auto.Kernel.Protocol != ir.ProtoAuto {
				t.Errorf("kernel protocols = %s / %s, want LL / auto",
					ll.Kernel.Protocol, auto.Kernel.Protocol)
			}
			if st := c.Stats(); st.Misses != 2 {
				t.Errorf("stats = %+v, want 2 misses", st)
			}
			// Re-requesting each tier must hit its own entry.
			if p, hit, _ := c.CompileNoted(context.Background(), b, forced); !hit || p != ll {
				t.Error("second forced-LL request should hit the forced entry")
			}
			if p, hit, _ := c.CompileNoted(context.Background(), b, req); !hit || p != auto {
				t.Error("second auto request should hit the auto entry")
			}
		})
	}
}

// Concurrent requests for one key collapse into a single compilation, so
// miss counts stay deterministic under the parallel harness.
func TestCacheConcurrentSingleflight(t *testing.T) {
	req := cacheTestRequest(t)
	c := NewCache()
	b := NewResCCL()
	const n = 8
	plans := make([]*Plan, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Compile(context.Background(), b, req)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent lookups returned different plans")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("stats = %+v, want exactly 1 miss and %d hits", st, n-1)
	}
}

// A backend type the fingerprint does not understand must fall through
// to a direct compile instead of caching a potentially stale plan.
type opaqueBackend struct{ calls int }

func (o *opaqueBackend) Name() string { return "opaque" }
func (o *opaqueBackend) Compile(_ context.Context, req Request) (*Plan, error) {
	o.calls++
	return &Plan{Backend: "opaque", Algo: req.Algo}, nil
}

func TestCacheUnknownBackendUncached(t *testing.T) {
	req := cacheTestRequest(t)
	c := NewCache()
	ob := &opaqueBackend{}
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(context.Background(), ob, req); err != nil {
			t.Fatal(err)
		}
	}
	if ob.calls != 3 {
		t.Errorf("opaque backend compiled %d times, want 3 (uncached)", ob.calls)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("uncacheable requests must not touch counters: %+v", st)
	}
}

// A nil cache degrades to direct compilation.
func TestNilCacheCompiles(t *testing.T) {
	req := cacheTestRequest(t)
	var c *Cache
	p, err := c.Compile(context.Background(), NewNCCL(), req)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Kernel == nil {
		t.Fatal("nil cache must still compile")
	}
}

// Ensure ir.Transfer hashing covers every field: two algorithms whose
// transfers differ only in one field must get distinct keys.
func TestFingerprintTransferFields(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	mk := func(tr ir.Transfer) *ir.Algorithm {
		return &ir.Algorithm{Name: "x", Op: ir.OpAllGather, NRanks: 4, NChunks: 4,
			Transfers: []ir.Transfer{tr}}
	}
	base := ir.Transfer{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv}
	variants := []ir.Transfer{
		{Src: 1, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv},
		{Src: 0, Dst: 2, Step: 0, Chunk: 0, Type: ir.CommRecv},
		{Src: 0, Dst: 1, Step: 1, Chunk: 0, Type: ir.CommRecv},
		{Src: 0, Dst: 1, Step: 0, Chunk: 1, Type: ir.CommRecv},
		{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
	}
	b := NewMSCCL()
	baseKey, ok := fingerprint(b, Request{Algo: mk(base), Topo: tp})
	if !ok {
		t.Fatal("fingerprint failed")
	}
	for i, v := range variants {
		k, ok := fingerprint(b, Request{Algo: mk(v), Topo: tp})
		if !ok {
			t.Fatal("fingerprint failed")
		}
		if k == baseKey {
			t.Errorf("variant %d collides with base key", i)
		}
	}
}

// TestFingerprintPinned pins the plan-cache key bytes of a fixed 2×8
// hm-allreduce request, with and without a protocol tier and a table
// hash: how the key material is assembled may change, the key may not.
func TestFingerprintPinned(t *testing.T) {
	algo, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New(2, 8, topo.A100())
	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Algo: algo, Topo: tp},
			"2230cfa928efedd216db964493d4ccadac03d3912b9b50bb9bcc8db1afb238f9"},
		{Request{Algo: algo, Topo: tp, Protocol: ir.ProtoLL128, TuneHash: "0123456789abcdef"},
			"236853154097cab817c193750f65de4c91ca39c3a55d23ccfbdd874a10795825"},
	} {
		key, ok := fingerprint(NewResCCL(), tc.req)
		if !ok {
			t.Fatal("fingerprint refused a ResCCL request")
		}
		if got := hex.EncodeToString(key[:]); got != tc.want {
			t.Errorf("key(%v, %q) = %s, want %s", tc.req.Protocol, tc.req.TuneHash, got, tc.want)
		}
	}
}

// Compile is CompileNoted without the hit report.
func (c *Cache) Compile(ctx context.Context, b Backend, req Request) (*Plan, error) {
	plan, _, err := c.CompileNoted(ctx, b, req)
	return plan, err
}
