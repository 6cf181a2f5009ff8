package serve

import (
	"fmt"
	"strings"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// CompileRequest describes one tenant compile job. The same shape
// parameterises the simulate and analyze endpoints, which compile first
// and then run their extra stage on the resulting plan.
type CompileRequest struct {
	// Tenant identifies the requesting tenant for quota accounting and
	// per-tenant metrics. Empty maps to "anon"; an ID longer than
	// maxTenantBytes (64) is invalid. The first 255 distinct tenants get
	// their own metric series; later ones count only in the service
	// totals and in serve.tenant_overflow.requests.
	Tenant string `json:"tenant,omitempty"`
	// Backend selects the compiler: "resccl" (default), "nccl" or
	// "msccl".
	Backend string `json:"backend,omitempty"`
	// Algorithm names an expert-registry builder ("ring-allreduce",
	// "hm-allgather", …).
	Algorithm string `json:"algorithm"`
	// Nodes × GPUsPerNode defines the fabric shape. Flat algorithms
	// receive Nodes*GPUsPerNode ranks; hierarchical ones receive the
	// pair. Both must be positive, and the shape may hold at most
	// maxRanks (4096) ranks.
	Nodes       int `json:"nodes"`
	GPUsPerNode int `json:"gpus_per_node"`
	// Fabric selects the network tier: "flat" (default), "clos" or
	// "rail". Spines is the spine count for clos/rail (default 2, at
	// most maxSpines = 64).
	Fabric string `json:"fabric,omitempty"`
	Spines int    `json:"spines,omitempty"`
	// Profile selects the GPU profile: "a100" (default), "v100", "h100".
	Profile string `json:"profile,omitempty"`
	// Protocol forces a transport tier ("ll", "ll128", "simple");
	// empty/"auto" leaves the tier unforced: the NCCL backend then picks
	// it by buffer size on simulate and analyze, and every other case
	// stays auto.
	Protocol string `json:"protocol,omitempty"`
	// DeadlineMS caps this request's processing time in milliseconds.
	// Zero inherits the service default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SimulateRequest compiles and then simulates the plan. The simulated
// work is bounded: the buffer may be at most maxBufferBytes (1 TiB),
// and a plan whose run would simulate more than maxInstances (2^22)
// task instances (its tasks times its micro-batches, as the simulator
// derives them from the buffer, the tier's effective chunk and the
// algorithm's chunks per micro-batch) is rejected as invalid after it
// compiles and before it simulates.
type SimulateRequest struct {
	CompileRequest
	// BufferBytes is the per-rank payload (zero: 64 MiB; negative or
	// above maxBufferBytes is invalid).
	BufferBytes int64 `json:"buffer_bytes,omitempty"`
	// ChunkBytes is the transfer chunk size (zero: 1 MiB; negative is
	// invalid).
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
}

// AnalyzeRequest compiles and then runs the full static analyzer plus
// the resource-efficiency certifier. The certificate's gap comes from a
// simulation at the default 1 MiB chunk, bounded as SimulateRequest's
// is: at most maxBufferBytes of buffer and maxInstances simulated
// instances.
type AnalyzeRequest struct {
	CompileRequest
	// BufferBytes is the per-rank payload the certificate is issued for
	// and an auto tier is picked by (zero: 64 MiB; negative or above
	// maxBufferBytes is invalid).
	BufferBytes int64 `json:"buffer_bytes,omitempty"`
}

// CompileResponse summarises a compiled plan.
type CompileResponse struct {
	Backend string `json:"backend"`
	Kernel  string `json:"kernel"`
	// Protocol is the tier the plan was compiled for: the forced tier,
	// the NCCL backend's size-based pick, or "auto".
	Protocol   string  `json:"protocol"`
	CacheHit   bool    `json:"cache_hit"`
	NTBs       int     `json:"n_tbs"`
	MaxTBsRank int     `json:"max_tbs_per_rank"`
	TotalSlots int     `json:"total_slots"`
	VetClean   bool    `json:"vet_clean"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// SimulateResponse reports the simulated run.
type SimulateResponse struct {
	CompileResponse
	CompletionUS float64 `json:"completion_us"`
	AlgoBWGBs    float64 `json:"algo_bw_gbs"`
	LinkUtil     float64 `json:"link_util"`
	Events       int     `json:"events"`
	Instances    int     `json:"instances"`
	MicroBatches int     `json:"micro_batches"`
}

// AnalyzeResponse reports the analyzer verdict and the plan's
// resource-efficiency certificate.
type AnalyzeResponse struct {
	CompileResponse
	Clean    bool     `json:"clean"`
	Errors   int      `json:"errors"`
	Warnings int      `json:"warnings"`
	Notes    int      `json:"notes"`
	Diags    []string `json:"diags,omitempty"`
	// Certificate is the sha256-hashed resource-efficiency certificate
	// (optimality gap, occupancy and buffer peaks vs. budget, idle
	// ratio). Omitted when certification fails — the analyzer verdict
	// above still stands on its own.
	Certificate *cert.Certificate `json:"certificate,omitempty"`
}

// maxRanks and maxSpines bound a request's shape: the topology and the
// plan both allocate per rank, and a multi-tier topology per spine, so
// an unbounded shape could exhaust the daemon's memory. 4096 ranks is
// the largest fabric the repository simulates.
const (
	maxRanks  = 4096
	maxSpines = 64
)

// maxBufferBytes and maxInstances bound a simulate or analyze
// request's simulated work, which sim.Run cannot cancel once it starts:
// its run time grows with buffer/chunk. 2^22 instances admits the
// plan service benchmark's largest run (1,920 instances) and the
// 1,024-GPU HM-AllReduce at one micro-batch (2,095,104). A ring
// AllReduce on 1×4 simulates 3,932,160 instances in 1.05 s on a 2-vCPU
// Intel Xeon. maxTenantBytes bounds a tenant ID, which names metric
// series.
const (
	maxBufferBytes = 1 << 40
	maxInstances   = 1 << 22
	maxTenantBytes = 64
)

// maxDiagsInResponse bounds the diagnostic strings echoed to clients;
// the counts always cover the full report.
const maxDiagsInResponse = 32

func (r *CompileRequest) tenant() string {
	if r.Tenant == "" {
		return "anon"
	}
	return r.Tenant
}

// validate normalises the request and reports ErrInvalid-wrapped errors
// for malformed fields, before any admission or compute is spent.
func (r *CompileRequest) validate() error {
	if len(r.Tenant) > maxTenantBytes {
		return fmt.Errorf("%w: tenant ID of %d bytes exceeds %d", ErrInvalid, len(r.Tenant), maxTenantBytes)
	}
	if r.Algorithm == "" {
		return fmt.Errorf("%w: missing algorithm", ErrInvalid)
	}
	if _, ok := expert.Lookup(r.Algorithm); !ok {
		return fmt.Errorf("%w: unknown algorithm %q (known: %v)", ErrInvalid, r.Algorithm, expert.Names())
	}
	if r.Nodes <= 0 || r.GPUsPerNode <= 0 {
		return fmt.Errorf("%w: nodes and gpus_per_node must be positive (got %d×%d)", ErrInvalid, r.Nodes, r.GPUsPerNode)
	}
	// Divide rather than multiply: the product may overflow.
	if r.GPUsPerNode > maxRanks/r.Nodes {
		return fmt.Errorf("%w: %d×%d exceeds %d ranks", ErrInvalid, r.Nodes, r.GPUsPerNode, maxRanks)
	}
	if r.Spines > maxSpines {
		return fmt.Errorf("%w: %d spines exceeds %d", ErrInvalid, r.Spines, maxSpines)
	}
	switch strings.ToLower(r.Backend) {
	case "", "resccl", "nccl", "msccl":
	default:
		return fmt.Errorf("%w: unknown backend %q (known: resccl, nccl, msccl)", ErrInvalid, r.Backend)
	}
	switch strings.ToLower(r.Fabric) {
	case "", "flat", "clos", "rail":
	default:
		return fmt.Errorf("%w: unknown fabric %q (known: flat, clos, rail)", ErrInvalid, r.Fabric)
	}
	switch strings.ToLower(r.Profile) {
	case "", "a100", "v100", "h100":
	default:
		return fmt.Errorf("%w: unknown profile %q (known: a100, v100, h100)", ErrInvalid, r.Profile)
	}
	if r.Protocol != "" {
		if _, err := ir.ParseProtocol(strings.ToLower(r.Protocol)); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("%w: negative deadline_ms %d", ErrInvalid, r.DeadlineMS)
	}
	return nil
}

// payload returns a simulate or analyze request's per-rank payload,
// 64 MiB when the request leaves it zero, and an ErrInvalid-wrapped
// error when it or the chunk size is negative or the payload exceeds
// maxBufferBytes.
func payload(bufferBytes, chunkBytes int64) (int64, error) {
	if bufferBytes < 0 || chunkBytes < 0 {
		return 0, fmt.Errorf("%w: negative buffer_bytes %d or chunk_bytes %d", ErrInvalid, bufferBytes, chunkBytes)
	}
	if bufferBytes > maxBufferBytes {
		return 0, fmt.Errorf("%w: buffer_bytes %d exceeds %d", ErrInvalid, bufferBytes, int64(maxBufferBytes))
	}
	if bufferBytes == 0 {
		return 64 << 20, nil
	}
	return bufferBytes, nil
}

// geometry returns the tasks and micro-batches of simulating k on a
// bufferBytes payload in chunkBytes chunks (zero: the default), as the
// simulator derives them: the kernel's tier caps the chunk, and the
// algorithm's chunks per micro-batch set the micro-batch count.
func geometry(k *kernel.Kernel, bufferBytes, chunkBytes int64) (tasks, microBatches int) {
	chunk := simcost.Params(k.Protocol).EffectiveChunk(chunkBytes)
	return len(k.Graph.Tasks), simcost.PlanFor(bufferBytes, chunk, k.Graph.Algo.NChunks).NMicroBatches
}

// build materialises the execution request, without its cache, and the
// call, without its size. validate must have passed.
func (r *CompileRequest) build() (exec.Request, exec.Call, error) {
	var b backend.Backend
	switch strings.ToLower(r.Backend) {
	case "", "resccl":
		b = backend.NewResCCL()
	case "nccl":
		b = backend.NewNCCL()
	case "msccl":
		b = backend.NewMSCCL()
	}

	algo, err := expert.BuildOn(r.Algorithm, r.Nodes, r.GPUsPerNode)
	if err != nil {
		return exec.Request{}, exec.Call{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}

	var prof topo.Profile
	switch strings.ToLower(r.Profile) {
	case "", "a100":
		prof = topo.A100()
	case "v100":
		prof = topo.V100()
	case "h100":
		prof = topo.H100()
	}
	spines := r.Spines
	if spines <= 0 {
		spines = 2
	}
	var t *topo.Topology
	switch strings.ToLower(r.Fabric) {
	case "", "flat":
		t = topo.New(r.Nodes, r.GPUsPerNode, prof)
	case "clos":
		t = topo.NewClos(r.Nodes, r.GPUsPerNode, prof, spines)
	case "rail":
		t = topo.NewRail(r.Nodes, r.GPUsPerNode, prof, spines)
	}

	proto := ir.ProtoAuto
	if r.Protocol != "" {
		proto, _ = ir.ParseProtocol(strings.ToLower(r.Protocol))
	}
	return exec.Request{Backend: b, Topo: t}, exec.Call{Algo: algo, Protocol: proto}, nil
}
