// Package ir defines the intermediate representation shared by every stage
// of the ResCCL compiler pipeline: transfers (the unit emitted by
// ResCCLang and by algorithm builders), tasks (transfers annotated with
// identity and link placement), and primitives (the unit executed by a
// thread block at runtime).
//
// The model follows §3 and §4.2 of the paper. A collective communication
// algorithm is a set of transmission tasks under a topology; each task
// moves one chunk between two ranks at a logical step. Data dependencies
// order tasks that touch the same chunk; communication dependencies
// relate tasks that share a link.
package ir

import "fmt"

// Rank identifies a GPU in the communicator, 0-based and dense.
type Rank int

// ChunkID indexes a transmission unit within each rank's DataBuffer.
// ResCCLang partitions every buffer into nChunks chunks so that each
// ⟨Rank, ChunkID⟩ pair names one chunk in the global memory space.
type ChunkID int

// Step is the discrete logical time index of ResCCLang: all actions at a
// smaller step happen before actions at a larger step for the same chunk.
type Step int

// OpType names the collective operator an algorithm implements.
type OpType int

// Collective operator types supported by ResCCLang's OpType parameter.
const (
	OpAllGather OpType = iota
	OpAllReduce
	OpReduceScatter
	OpBroadcast
	// OpAllToAll is the personalized exchange (MoE dispatch): with
	// nChunks = nRanks², chunk s·nRanks+d moves from rank s to rank d.
	OpAllToAll
)

// String returns the ResCCLang spelling of the operator.
func (o OpType) String() string {
	switch o {
	case OpAllGather:
		return "Allgather"
	case OpAllReduce:
		return "Allreduce"
	case OpReduceScatter:
		return "Reducescatter"
	case OpBroadcast:
		return "Broadcast"
	case OpAllToAll:
		return "Alltoall"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// ParseOpType converts a ResCCLang operator name to its OpType.
func ParseOpType(s string) (OpType, error) {
	switch s {
	case "Allgather", "AllGather":
		return OpAllGather, nil
	case "Allreduce", "AllReduce":
		return OpAllReduce, nil
	case "Reducescatter", "ReduceScatter":
		return OpReduceScatter, nil
	case "Broadcast":
		return OpBroadcast, nil
	case "Alltoall", "AllToAll":
		return OpAllToAll, nil
	}
	return 0, fmt.Errorf("ir: unknown operator type %q", s)
}

// CommType is the receive-side behaviour of a transfer: plain copy (recv)
// or reduce-accumulate (rrc, recvReduceCopy).
type CommType int

// Communication types of ResCCLang's transfer(..., commType) argument.
const (
	// CommRecv copies the incoming chunk into the destination buffer.
	CommRecv CommType = iota
	// CommRecvReduceCopy reduces the incoming chunk into the destination
	// buffer (element-wise sum), the "rrc" of ResCCLang.
	CommRecvReduceCopy
)

// String returns the ResCCLang spelling of the communication type.
func (c CommType) String() string {
	switch c {
	case CommRecv:
		return "recv"
	case CommRecvReduceCopy:
		return "rrc"
	default:
		return fmt.Sprintf("CommType(%d)", int(c))
	}
}

// ParseCommType converts a ResCCLang comm-type name to its CommType.
func ParseCommType(s string) (CommType, error) {
	switch s {
	case "recv":
		return CommRecv, nil
	case "rrc", "recvReduceCopy":
		return CommRecvReduceCopy, nil
	}
	return 0, fmt.Errorf("ir: unknown comm type %q", s)
}

// Transfer is the unit of algorithm logic: move chunk Chunk from Src to
// Dst at logical step Step; the receiver applies Type. It is exactly the
// Transfer(srcRank, dstRank, step, chunkId, opType) tuple of ResCCLang.
type Transfer struct {
	Src   Rank
	Dst   Rank
	Step  Step
	Chunk ChunkID
	Type  CommType
}

// String formats the transfer as ResCCLang would write it.
func (t Transfer) String() string {
	return fmt.Sprintf("transfer(%d, %d, %d, %d, %s)", t.Src, t.Dst, t.Step, t.Chunk, t.Type)
}

// Validate reports whether the transfer is well formed for a communicator
// of nRanks ranks with nChunks chunks per rank.
func (t Transfer) Validate(nRanks, nChunks int) error {
	if t.Src < 0 || int(t.Src) >= nRanks {
		return fmt.Errorf("ir: transfer %v: src rank out of range [0,%d)", t, nRanks)
	}
	if t.Dst < 0 || int(t.Dst) >= nRanks {
		return fmt.Errorf("ir: transfer %v: dst rank out of range [0,%d)", t, nRanks)
	}
	if t.Src == t.Dst {
		return fmt.Errorf("ir: transfer %v: src == dst", t)
	}
	if t.Step < 0 {
		return fmt.Errorf("ir: transfer %v: negative step", t)
	}
	if t.Chunk < 0 || int(t.Chunk) >= nChunks {
		return fmt.Errorf("ir: transfer %v: chunk out of range [0,%d)", t, nChunks)
	}
	return nil
}

// Algorithm is a complete collective communication algorithm: the data
// transfer plan between GPUs for one micro-batch, independent of any
// execution policy. It is what ResCCLang programs and the expert/synth
// builders produce and what the backend compiles.
type Algorithm struct {
	// Name labels the algorithm (e.g. "HM", "Ring", "TACCL-AG").
	Name string
	// Op is the collective operator the plan implements.
	Op OpType
	// NRanks is the number of participating GPUs.
	NRanks int
	// NChunks is the number of chunks each rank's buffer is divided into.
	// ResCCLang fixes NChunks == NRanks, but synthesized plans may use a
	// multiple of it.
	NChunks int
	// NChannels and NWarps mirror the ResCCLang header parameters. They
	// are tuning hints for baseline backends (ResCCL itself derives TB
	// counts from the schedule).
	NChannels int
	NWarps    int
	// Transfers is the unordered set of transmission tasks. Order within
	// the slice is not semantically meaningful; Step carries ordering.
	Transfers []Transfer
	// StageBounds optionally marks expert-annotated stage boundaries for
	// stage-level backends (§2.1): StageBounds[k] is the first step of
	// stage k (StageBounds[0] must be 0). Nil means a single stage.
	StageBounds []Step
	// Group, when non-nil, marks the algorithm as a process-group
	// collective embedded into a larger communicator (see Embed): only
	// the listed global ranks participate, and correctness is judged
	// against the group's view.
	Group []Rank
	// Initial, when non-nil, overrides the operator's default
	// precondition: Initial[rank][chunk] reports whether that buffer
	// location holds valid data before the algorithm starts. Repair
	// plans produced by replanning use it — they begin from whatever a
	// partially executed collective already delivered, not from the
	// operator's pristine precondition.
	Initial [][]bool
}

// StageOf returns the stage index containing the given step (0 when the
// algorithm has no stage annotations).
func (a *Algorithm) StageOf(s Step) int {
	stage := 0
	for k := 1; k < len(a.StageBounds); k++ {
		if s >= a.StageBounds[k] {
			stage = k
		}
	}
	return stage
}

// NStages returns the number of annotated stages (minimum 1).
func (a *Algorithm) NStages() int {
	if len(a.StageBounds) == 0 {
		return 1
	}
	return len(a.StageBounds)
}

// Validate checks structural well-formedness of the algorithm: parameter
// ranges, transfer ranges, and that no two transfers are identical in
// (src, dst, step, chunk) — such duplicates would alias one task. When
// several transfers are defective, the first in input order is
// reported, whether it is malformed or repeats an earlier transfer.
func (a *Algorithm) Validate() error {
	_, err := a.validate()
	return err
}

// Canonical validates the algorithm as Validate does and returns the
// indices of its transfers in Sorted order: a.Transfers[order[0]] comes
// first. One radix order serves both, so a caller that needs the
// validated order (the correctness gate, dependency analysis) pays for
// one linear pass and reads the transfers in place.
func (a *Algorithm) Canonical() (order []int32, err error) {
	return a.validate()
}

// validate implements Validate and returns the transfers' canonical
// order. Duplicates are equal adjacent keys in that order; as the order
// is stable, each run's later members are the repeats, in input order.
func (a *Algorithm) validate() ([]int32, error) {
	if a.NRanks < 2 {
		return nil, fmt.Errorf("ir: algorithm %q: need at least 2 ranks, have %d", a.Name, a.NRanks)
	}
	if a.NChunks < 1 {
		return nil, fmt.Errorf("ir: algorithm %q: need at least 1 chunk, have %d", a.Name, a.NChunks)
	}
	if len(a.Transfers) == 0 {
		return nil, fmt.Errorf("ir: algorithm %q: no transfers", a.Name)
	}
	if a.Initial != nil {
		if len(a.Initial) != a.NRanks {
			return nil, fmt.Errorf("ir: algorithm %q: Initial has %d rank rows, want %d", a.Name, len(a.Initial), a.NRanks)
		}
		for r, row := range a.Initial {
			if len(row) != a.NChunks {
				return nil, fmt.Errorf("ir: algorithm %q: Initial[%d] has %d chunks, want %d", a.Name, r, len(row), a.NChunks)
			}
		}
	}
	ts := a.Transfers
	first := len(ts) // the first defective transfer in input order
	for i, t := range ts {
		if t.Validate(a.NRanks, a.NChunks) != nil {
			first = i
			break
		}
	}
	idx := a.order()
	for k := 1; k < len(idx); k++ {
		p, t := ts[idx[k-1]], ts[idx[k]]
		if int(idx[k]) < first && p.Step == t.Step && p.Chunk == t.Chunk && p.Src == t.Src && p.Dst == t.Dst {
			first = int(idx[k])
		}
	}
	if first == len(ts) {
		return idx, nil
	}
	if err := ts[first].Validate(a.NRanks, a.NChunks); err != nil {
		return nil, fmt.Errorf("ir: algorithm %q: %w", a.Name, err)
	}
	return nil, fmt.Errorf("ir: algorithm %q: duplicate transfer %v", a.Name, ts[first])
}

// MaxStep returns the largest step index used by the algorithm, or -1 if
// it has no transfers.
func (a *Algorithm) MaxStep() Step {
	maxStep := Step(-1)
	for _, t := range a.Transfers {
		if t.Step > maxStep {
			maxStep = t.Step
		}
	}
	return maxStep
}

// Sorted returns the transfers ordered by (step, chunk, src, dst). The
// receiver is not modified. Deterministic ordering is load-bearing for
// reproducible schedules and golden tests.
//
// The sort is stable — transfers equal in all four fields, which only
// an invalid algorithm has, keep their input order — and linear: a
// RadixSort over the four fields in O(n) time and O(n) memory for n
// transfers, whatever their values. Unvalidated input is fine:
// negative or huge ranks, chunks and steps neither panic nor grow the
// memory beyond that bound.
func (a *Algorithm) Sorted() []Transfer { return a.permute(a.order()) }

// order returns the indices of a.Transfers in Sorted order.
func (a *Algorithm) order() []int32 {
	ts := a.Transfers
	idx := make([]int32, len(ts))
	for i := range idx {
		idx[i] = int32(i)
	}
	RadixSort(idx,
		func(i int32) int { return int(ts[i].Step) },
		func(i int32) int { return int(ts[i].Chunk) },
		func(i int32) int { return int(ts[i].Src) },
		func(i int32) int { return int(ts[i].Dst) })
	return idx
}

// permute returns the transfers listed by idx.
func (a *Algorithm) permute(idx []int32) []Transfer {
	out := make([]Transfer, len(idx))
	for k, i := range idx {
		out[k] = a.Transfers[i]
	}
	return out
}

// TaskID identifies one transmission task inside a compiled plan. Task IDs
// are dense indices assigned by the dependency analysis in deterministic
// (step, chunk, src, dst) order.
type TaskID int

// Task is a transfer annotated with its identity. The scheduler operates
// on tasks; the runtime expands each task into a send/recv (or send/rrc)
// primitive pair executed across all micro-batches (§4.3,
// task-to-primitive translation).
type Task struct {
	ID TaskID
	Transfer
}

// PrimKind is the kind of a runtime communication primitive.
type PrimKind int

// Primitive kinds, mirroring the NCCL-style primitive vocabulary the
// paper uses (send, recv, recvReduceCopy).
const (
	PrimSend PrimKind = iota
	PrimRecv
	PrimRecvReduceCopy
)

// String returns the runtime name of the primitive kind.
func (k PrimKind) String() string {
	switch k {
	case PrimSend:
		return "send"
	case PrimRecv:
		return "recv"
	case PrimRecvReduceCopy:
		return "recvReduceCopy"
	default:
		return fmt.Sprintf("PrimKind(%d)", int(k))
	}
}

// Primitive is the unit actually executed by a thread block at runtime:
// one side of a task's chunk movement. Task-to-primitive translation maps
// every task to exactly one send primitive (on the source rank) and one
// recv or recvReduceCopy primitive (on the destination rank). A
// primitive names its task rather than copying it: the rank that runs
// it and its peer follow from the task's transfer and the kind
// (Transfer.Ends).
type Primitive struct {
	Task TaskID
	Kind PrimKind
}

// Primitives expands a task into its send and receive primitives.
func (t Task) Primitives() (send, recv Primitive) {
	rk := PrimRecv
	if t.Type == CommRecvReduceCopy {
		rk = PrimRecvReduceCopy
	}
	return Primitive{Task: t.ID, Kind: PrimSend}, Primitive{Task: t.ID, Kind: rk}
}

// Ends returns the GPU that executes the transfer's kind side and the
// remote GPU it exchanges with: (Src, Dst) for a send, (Dst, Src) for
// every other kind.
func (t Transfer) Ends(kind PrimKind) (rank, peer Rank) {
	if kind == PrimSend {
		return t.Src, t.Dst
	}
	return t.Dst, t.Src
}

// Embed remaps an algorithm written for a sub-communicator onto a larger
// cluster: ranks[i] is the global rank playing the algorithm's rank i.
// The result has NRanks = fullRanks and is suitable for process-group
// collectives (tensor/data-parallel groups) simulated on the full
// topology. Chunk ownership conventions are defined relative to the
// group, so verification applies to the group view only; the
// embedding is primarily for AllReduce-style operators whose
// preconditions are rank-independent.
func Embed(a *Algorithm, ranks []Rank, fullRanks int) (*Algorithm, error) {
	if len(ranks) != a.NRanks {
		return nil, fmt.Errorf("ir: embed: %d ranks provided for a %d-rank algorithm", len(ranks), a.NRanks)
	}
	seen := make(map[Rank]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || int(r) >= fullRanks {
			return nil, fmt.Errorf("ir: embed: rank %d outside [0,%d)", r, fullRanks)
		}
		if seen[r] {
			return nil, fmt.Errorf("ir: embed: duplicate rank %d", r)
		}
		seen[r] = true
	}
	out := &Algorithm{
		Name:        a.Name + "@group",
		Op:          a.Op,
		NRanks:      fullRanks,
		NChunks:     a.NChunks,
		NChannels:   a.NChannels,
		NWarps:      a.NWarps,
		StageBounds: append([]Step(nil), a.StageBounds...),
		Group:       append([]Rank(nil), ranks...),
	}
	for _, t := range a.Transfers {
		out.Transfers = append(out.Transfers, Transfer{
			Src: ranks[t.Src], Dst: ranks[t.Dst], Step: t.Step, Chunk: t.Chunk, Type: t.Type,
		})
	}
	return out, out.Validate()
}

// Mod is the non-negative modulo of ring index arithmetic: Mod(-1, n)
// is n-1.
func Mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
