package backend

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// Cache is a content-addressed compile cache: plans are keyed by a
// structural fingerprint of (backend configuration, algorithm, topology),
// so a buffer-size sweep compiles each plan once instead of once per
// point. Compilation is a pure function of that triple — the buffer and
// chunk sizes enter only at simulation time — which is what makes the
// key sound.
//
// The cache is bounded: entries live in sharded LRU lists capped by
// entry count and by the bytes the resident plans hold (the size of
// each plan's own arrays, within 10% of the heap it retains), so a
// long-running process (the ressclserve daemon) cannot grow it without
// limit. The shards divide both the budget and the lock, keeping
// concurrent tenants off each other's mutexes.
//
// Concurrent requests for the same key are collapsed into a single
// compilation (singleflight). The flight is cancellation-safe: the
// compile runs under its own context that is cancelled only when every
// interested caller — leader and followers alike — has gone away, so a
// cancelled leader neither aborts followers that still have budget nor
// caches a partial plan. Cancelled flights are dropped from the cache;
// the next request recompiles. For workloads that never cancel, hit and
// miss counts remain deterministic: misses == distinct keys requested
// (as long as the bounds are not hit).
//
// Compiled plans are shared by reference; Plan, its Kernel and its Graph
// are treated as immutable after compilation everywhere downstream (the
// simulator, fault recovery and the trace analyzer only read them).
type Cache struct {
	shards []cacheShard
}

// CacheConfig bounds a plan cache. The zero value applies the defaults;
// the budgets are divided evenly across shards.
type CacheConfig struct {
	// MaxEntries caps the number of resident plans (default
	// DefaultMaxEntries).
	MaxEntries int
	// MaxBytes caps the bytes the resident plans hold, each counted
	// as the allocated size of its own structs and arrays plus a small
	// allowance for its entry (default DefaultMaxBytes). A plan's full
	// analysis (Plan.Analysis) is not counted: it is built after the
	// plan is inserted, and planBytes runs at insertion. It stays
	// small: a resident plan passed vet, so it carries no deadlock
	// cycle, the one diagnostic whose task list grows with the plan;
	// every pass reports at most 16 diagnostics plus one elision note.
	// Over the serve-mixed catalog's 144 plans the report is at most
	// 2,752 bytes, and at most 13% of its plan's charge.
	MaxBytes int64
	// Shards is the lock-striping width, rounded up to a power of two
	// (default DefaultShards).
	Shards int
}

// Cache bound defaults: generous enough that the bench suite never
// evicts (keeping its counters deterministic), small enough that a
// long-running service stays bounded.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 1 << 30
	DefaultShards     = 8
)

func (c CacheConfig) withDefaults() CacheConfig {
	if c.MaxEntries <= 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	pow := 1
	for pow < c.Shards {
		pow <<= 1
	}
	c.Shards = pow
	return c
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*cacheEntry
	// lru holds completed entries, most recently used at the front.
	// In-flight entries live only in the map.
	lru        list.List
	bytes      int64
	maxEntries int
	maxBytes   int64

	hits, misses, evictions int64
}

type cacheEntry struct {
	key  [sha256.Size]byte
	done chan struct{}
	plan *Plan
	err  error

	// Singleflight state, guarded by the shard mutex.
	refs      int                // callers currently waiting on the flight
	cancel    context.CancelFunc // stops the compile when the flight is abandoned
	completed bool
	abandoned bool

	// Residency state, guarded by the shard mutex.
	bytes int64
	elem  *list.Element // non-nil once resident in the LRU
}

// NewCache returns a plan cache with the default bounds.
func NewCache() *Cache { return NewCacheWith(CacheConfig{}) }

// NewCacheWith returns a plan cache with explicit bounds.
func NewCacheWith(cfg CacheConfig) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{shards: make([]cacheShard, cfg.Shards)}
	perEntries := (cfg.MaxEntries + cfg.Shards - 1) / cfg.Shards
	if perEntries < 1 {
		perEntries = 1
	}
	perBytes := cfg.MaxBytes / int64(cfg.Shards)
	if perBytes < 1 {
		perBytes = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[[sha256.Size]byte]*cacheEntry)
		c.shards[i].maxEntries = perEntries
		c.shards[i].maxBytes = perBytes
	}
	return c
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits   int64
	Misses int64
	// Evictions counts resident plans dropped to satisfy the entry or
	// byte bound.
	Evictions int64
	Entries   int
	// Bytes is the resident plans' footprint as MaxBytes counts it.
	Bytes int64
}

// HitRate returns the fraction of lookups served from the cache, 0 when
// the cache was never used.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the counters across all shards.
func (c *Cache) Stats() CacheStats {
	var s CacheStats
	if c == nil {
		return s
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		s.Entries += sh.lru.Len()
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// CompileNoted returns the cached plan for the request, compiling it on
// first use, and reports whether the plan was served from the cache (or
// an already-running flight), so callers can account cache
// effectiveness per lookup. Backends with configurations the
// fingerprint does not understand fall through to a direct, uncached
// compile and report hit=false.
//
// ctx governs only this caller's wait: when it is cancelled the caller
// detaches from the flight and gets ctx's error, while the compile keeps
// running for any other waiters. Only when the last waiter detaches is
// the compile itself cancelled, and its partial result is discarded
// rather than cached.
func (c *Cache) CompileNoted(ctx context.Context, b Backend, req Request) (*Plan, bool, error) {
	if c == nil {
		plan, err := b.Compile(ctx, req)
		return plan, false, err
	}
	key, ok := fingerprint(b, req)
	if !ok {
		plan, err := b.Compile(ctx, req)
		return plan, false, err
	}
	return c.CompileKeyed(ctx, b, req, key)
}

// Fingerprint returns the plan-cache key of a request, as the cache
// computes it, and false when the request is uncacheable. A caller that
// issues the same request repeatedly can compute its key once and
// compile through CompileKeyed.
func Fingerprint(b Backend, req Request) ([sha256.Size]byte, bool) { return fingerprint(b, req) }

// Content hashes what Fingerprint hashes of an algorithm except its
// name: the operator, shape and every transfer. Compilation does not
// read the name, so two algorithms with equal Content compile, on one
// backend, topology and tier, to plans that simulate identically.
func Content(a *ir.Algorithm) [sha256.Size]byte {
	bp := keyBufs.Get().(*[]byte)
	buf := appendContent((*bp)[:0], a)
	key := sha256.Sum256(buf)
	*bp = buf
	keyBufs.Put(bp)
	return key
}

// CompileKeyed is CompileNoted for a caller that already holds the
// request's key, key = Fingerprint(b, req), so a hit hashes nothing.
// A wrong key serves the wrong plan: the caller owns its correctness.
func (c *Cache) CompileKeyed(ctx context.Context, b Backend, req Request, key [sha256.Size]byte) (*Plan, bool, error) {
	if c == nil {
		plan, err := b.Compile(ctx, req)
		return plan, false, err
	}
	// A caller whose context is already done gets its error, never a
	// plan: otherwise a flight that completes at once could win the
	// select in wait and hand a cancelled caller a nil error.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	sh := &c.shards[int(key[0])&(len(c.shards)-1)]

	sh.mu.Lock()
	if e, found := sh.entries[key]; found && !e.abandoned {
		sh.hits++
		if e.completed {
			if e.elem != nil {
				sh.lru.MoveToFront(e.elem)
			}
			sh.mu.Unlock()
			return e.plan, true, e.err
		}
		// Join the in-flight compilation.
		e.refs++
		sh.mu.Unlock()
		return sh.wait(ctx, e, true)
	}
	// Miss: start a new flight. The compile context is deliberately
	// detached from the caller's: it is cancelled by the last departing
	// waiter, not by any single caller.
	sh.misses++
	cctx, cancel := context.WithCancel(context.Background()) //resccl:allow ctxflow
	e := &cacheEntry{key: key, done: make(chan struct{}), refs: 1, cancel: cancel}
	sh.entries[key] = e
	sh.mu.Unlock()

	go func() {
		plan, err := b.Compile(cctx, req)
		sh.complete(e, plan, err)
	}()
	return sh.wait(ctx, e, false)
}

// wait blocks until the flight completes or ctx is cancelled, detaching
// from the flight in the latter case.
func (sh *cacheShard) wait(ctx context.Context, e *cacheEntry, hit bool) (*Plan, bool, error) {
	if ctx == nil {
		// A nil ctx means "never cancel" by the Compile contract.
		ctx = context.Background() //resccl:allow ctxflow
	}
	select {
	case <-e.done:
		sh.mu.Lock()
		e.refs--
		sh.mu.Unlock()
		return e.plan, hit, e.err
	case <-ctx.Done():
		sh.detach(e)
		return nil, false, ctx.Err()
	}
}

// detach removes one waiter from an in-flight entry. The last departing
// waiter abandons the flight: the compile context is cancelled and the
// entry is unlinked so the next request recompiles.
func (sh *cacheShard) detach(e *cacheEntry) {
	sh.mu.Lock()
	e.refs--
	if e.refs == 0 && !e.completed {
		e.abandoned = true
		if sh.entries[e.key] == e {
			delete(sh.entries, e.key)
		}
		sh.mu.Unlock()
		e.cancel()
		return
	}
	sh.mu.Unlock()
}

// complete records the flight's outcome. Successful (and deterministic-
// error) results become resident LRU entries; cancelled or abandoned
// flights are dropped so a partial result can never be served later.
func (sh *cacheShard) complete(e *cacheEntry, plan *Plan, err error) {
	cancelled := err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	sh.mu.Lock()
	e.plan, e.err = plan, err
	e.completed = true
	if e.abandoned || cancelled {
		if sh.entries[e.key] == e {
			delete(sh.entries, e.key)
		}
	} else {
		e.bytes = planBytes(plan) + entryBytes
		e.elem = sh.lru.PushFront(e)
		sh.bytes += e.bytes
		sh.evict()
	}
	close(e.done)
	sh.mu.Unlock()
	e.cancel() // release the flight context's resources
}

// evict drops least-recently-used resident entries until the shard is
// within its bounds. The entry just inserted (front) is never evicted,
// so a single oversized plan still serves its own waiters.
func (sh *cacheShard) evict() {
	for (sh.lru.Len() > sh.maxEntries || sh.bytes > sh.maxBytes) && sh.lru.Len() > 1 {
		back := sh.lru.Back()
		ev := back.Value.(*cacheEntry)
		sh.lru.Remove(back)
		ev.elem = nil
		if sh.entries[ev.key] == ev {
			delete(sh.entries, ev.key)
		}
		sh.bytes -= ev.bytes
		sh.evictions++
	}
}

// entryBytes is the cache's own allowance per resident entry: the entry,
// its LRU element and its map slot.
const entryBytes = 512

// planBytes is a plan's memory footprint: the plan's structs and the
// backing arrays and strings they own, each array counted at its
// capacity as the allocator reserves it (allocSize). The topology is
// not counted: plans compiled for one fabric share it. Neither is the
// full analysis: the cache calls planBytes when it inserts the plan,
// before any caller asks for Plan.Analysis (see CacheConfig.MaxBytes
// for its bound).
func planBytes(p *Plan) int64 {
	if p == nil {
		return 0
	}
	n := sizeOf(p) + arrayBytes(p.Stages) + algoBytes(p.Algo) + reportBytes(p.Vet)
	k := p.Kernel
	if k == nil {
		return n
	}
	n += sizeOf(k) + arrayBytes(k.TBs) + arrayBytes(k.SendTB) + arrayBytes(k.RecvTB) +
		csrBytes(k.LinkPreds) + arrayBytes(k.TaskSub) + arrayBytes(k.TaskPos)
	// kernel.Generate lowers every backend's kernel, so its TB programs,
	// slots and labels are runs of one array each, summed rather than
	// rounded per TB.
	for _, tb := range k.TBs {
		n += int64(unsafe.Sizeof(*tb)) + int64(cap(tb.Slots))*int64(unsafe.Sizeof(ir.Primitive{})) + int64(len(tb.Label))
	}
	g := k.Graph
	if g == nil {
		return n
	}
	if g.Algo != p.Algo {
		n += algoBytes(g.Algo)
	}
	n += sizeOf(g) + arrayBytes(g.Tasks) + csrBytes(g.Deps) + csrBytes(g.Dependents) +
		arrayBytes(g.ConnPaths) + arrayBytes(g.Conn) + csrBytes(g.ChunkTasks) + csrBytes(g.LinkTasks) +
		arrayBytes(g.LinkWindows)
	for _, path := range g.ConnPaths {
		n += arrayBytes(path.Resources) + arrayBytes(path.CommLinks)
	}
	return n
}

// reportBytes is an analysis report's footprint: its struct, its
// diagnostics and their messages and task lists.
func reportBytes(r *analyze.Report) int64 {
	if r == nil {
		return 0
	}
	n := sizeOf(r) + arrayBytes(r.Diags)
	for _, d := range r.Diags {
		n += allocSize(int64(len(d.Message))) + arrayBytes(d.Tasks)
	}
	return n
}

// algoBytes is an algorithm's footprint: its struct, name and arrays.
func algoBytes(a *ir.Algorithm) int64 {
	if a == nil {
		return 0
	}
	n := sizeOf(a) + allocSize(int64(len(a.Name))) + arrayBytes(a.Transfers) +
		arrayBytes(a.StageBounds) + arrayBytes(a.Group) + arrayBytes(a.Initial)
	for _, row := range a.Initial {
		n += arrayBytes(row)
	}
	return n
}

func csrBytes(c dag.CSR) int64 { return arrayBytes(c.Off) + arrayBytes(c.Items) }

// sizeOf is the allocation holding *p.
func sizeOf[T any](p *T) int64 { return allocSize(int64(unsafe.Sizeof(*p))) }

// arrayBytes is the allocation backing s.
func arrayBytes[T any](s []T) int64 {
	var zero T
	return allocSize(int64(cap(s)) * int64(unsafe.Sizeof(zero)))
}

// allocSize is the number of bytes the Go allocator reserves for an
// n-byte object: n rounded up to its size class, or to whole 8 KiB
// pages above the largest class.
func allocSize(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if n > sizeClasses[len(sizeClasses)-1] {
		return (n + 8191) &^ 8191
	}
	i, _ := slices.BinarySearch(sizeClasses[:], n)
	return sizeClasses[i]
}

// sizeClasses are the Go allocator's small object sizes
// (runtime/sizeclasses.go).
var sizeClasses = [...]int64{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280,
	1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912,
	8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576,
	27264, 28672, 32768}

// Configurer lets backend implementations outside the three built-ins
// opt into caching: the returned string must capture every compile-
// relevant configuration knob (equal strings ⇒ identical compilation
// behaviour), and ok=false opts out per call. The serve and chaos
// harnesses use it to keep instrumented wrapper backends cacheable.
type Configurer interface {
	CompileConfig() (cfg string, ok bool)
}

// fingerprint hashes everything compilation depends on. It returns
// ok=false for backend types it cannot describe, which callers treat as
// uncacheable rather than risking a stale plan. The key material is
// appended into one pooled buffer and hashed in a single call, so a
// lookup allocates nothing.
func fingerprint(b Backend, req Request) ([sha256.Size]byte, bool) {
	if req.Algo == nil || req.Topo == nil {
		return [sha256.Size]byte{}, false
	}
	cfg, ok := backendConfig(b)
	if !ok {
		return [sha256.Size]byte{}, false
	}
	bp := keyBufs.Get().(*[]byte)
	// Length-prefix the variable-length strings so (cfg, tuneHash)
	// pairs can never alias each other.
	buf := appendInts((*bp)[:0], int64(len(cfg)))
	buf = append(buf, cfg...)
	// The dispatch-table generation that chose the plan is part of its
	// identity: a re-tuned table must never serve a stale cached plan.
	buf = appendInts(buf, int64(len(req.TuneHash)))
	buf = append(buf, req.TuneHash...)
	// The protocol tier is resolved before compilation (auto-selection
	// happens at request time), so it is part of the compile identity:
	// forced and auto-selected plans must never collide.
	buf = appendInts(buf, int64(req.Protocol))
	buf = appendAlgorithm(buf, req.Algo)
	buf = appendTopology(buf, req.Topo)
	key := sha256.Sum256(buf)
	*bp = buf
	keyBufs.Put(bp)
	return key, true
}

// keyBufs recycles fingerprint buffers across lookups.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// backendConfig renders a backend's compile-relevant configuration. The
// three known backend types and Configurer implementations are
// cacheable; anything else (a test stub, a future stateful backend)
// compiles directly.
func backendConfig(b Backend) (string, bool) {
	switch bb := b.(type) {
	case *NCCL:
		return "NCCL", true
	case *MSCCL:
		return "MSCCL", true
	case *ResCCL:
		o := bb.Options
		return fmt.Sprintf("ResCCL|pol=%d|alloc=%d|mode=%d|proto=%d",
			o.Policy, o.Alloc, o.Mode, o.Protocol), true
	case Configurer:
		return bb.CompileConfig()
	default:
		return "", false
	}
}

func appendAlgorithm(buf []byte, a *ir.Algorithm) []byte {
	return appendContent(append(buf, a.Name...), a)
}

func appendContent(buf []byte, a *ir.Algorithm) []byte {
	buf = appendInts(buf, int64(a.Op), int64(a.NRanks), int64(a.NChunks), int64(a.NChannels), int64(a.NWarps))
	buf = appendInts(buf, int64(len(a.Transfers)))
	for _, t := range a.Transfers {
		buf = appendInts(buf, int64(t.Src), int64(t.Dst), int64(t.Step), int64(t.Chunk), int64(t.Type))
	}
	buf = appendInts(buf, int64(len(a.StageBounds)))
	for _, s := range a.StageBounds {
		buf = appendInts(buf, int64(s))
	}
	buf = appendInts(buf, int64(len(a.Group)))
	for _, r := range a.Group {
		buf = appendInts(buf, int64(r))
	}
	return buf
}

func appendTopology(buf []byte, t *topo.Topology) []byte {
	p := t.Profile
	buf = append(buf, p.Name...)
	buf = appendFloats(buf, p.NVLinkBW, p.NICBW, p.TBCapIntra, p.TBCapInter, p.Gamma)
	buf = appendInts(buf,
		int64(p.LatIntra), int64(p.LatInter), int64(p.LatCrossRack),
		int64(p.InterpCost), int64(p.KernelLoad),
		int64(t.NNodes), int64(t.GPUsPerNode), int64(t.NICsPerNode), int64(t.ServersPerRack))
	// Fabric tier: a flat, a clos and a rail topology of the same shape
	// compile to different plans (spine resources, rail striping), so
	// they must never share a fingerprint.
	rail := int64(0)
	if t.RailOptimized {
		rail = 1
	}
	buf = appendInts(buf, int64(t.NSpines), rail)
	return appendFloats(buf, t.SpineBW)
}

func appendInts(buf []byte, vals ...int64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func appendFloats(buf []byte, vals ...float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}
