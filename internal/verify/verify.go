// Package verify is the semantic postcondition verifier — the one
// correctness oracle for plans and executed traces. It replays a
// transfer trace symbolically and proves the collective's
// postcondition, at any communicator size, independently of how many
// replans produced the trace.
//
// Each (rank, chunk) location carries the set of origin-rank
// contributions it currently holds, ⊥ before anything valid is
// delivered. A recv replaces the destination's set; an rrc merges two
// sets and fails if they overlap — a contribution counted twice — or if
// either side is ⊥ — data consumed before it was delivered. The
// postcondition then checks, per operator, that every surviving rank
// ends with exactly the achievable contribution set (the full set minus
// contributions declared lost to permanent failures), each counted
// exactly once. This is the machine-checked schedule-correctness
// discipline of SCCL: it holds for static plans, clean runs, degraded
// runs, and any composition of replans.
package verify

import (
	"fmt"
	"math/bits"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
)

// Set is a set of origin ranks whose contributions a buffer location
// holds: a bitset of any width, bit r of word r/64 for rank r. Missing
// high words read as zero, so sets of different widths compare by
// content. The zero value (nil) is the empty set.
type Set []uint64

// SetOf builds a set from ranks.
func SetOf(ranks ...ir.Rank) Set {
	var s Set
	for _, r := range ranks {
		for int(r)/64 >= len(s) {
			s = append(s, 0)
		}
		s[r/64] |= 1 << (uint(r) % 64)
	}
	return s
}

// FullSet is the set of all n ranks.
func FullSet(n int) Set {
	s := make(Set, words(n))
	for i := range s {
		s[i] = ^uint64(0)
	}
	if n%64 != 0 {
		s[len(s)-1] = 1<<uint(n%64) - 1
	}
	return s
}

// words is the number of 64-bit words a set over n ranks needs.
func words(n int) int { return (n + 63) / 64 }

// Has reports membership.
func (s Set) Has(r ir.Rank) bool {
	return int(r)/64 < len(s) && s[r/64]&(1<<(uint(r)%64)) != 0
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the cardinality.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or returns s ∪ t as a new set.
func (s Set) Or(t Set) Set {
	if len(s) < len(t) {
		s, t = t, s
	}
	out := append(Set(nil), s...)
	for i, w := range t {
		out[i] |= w
	}
	return out
}

// And returns s ∩ t as a new set.
func (s Set) And(t Set) Set {
	out := make(Set, min(len(s), len(t)))
	for i := range out {
		out[i] = s[i] & t[i]
	}
	return out
}

// AndNot returns s ∖ t as a new set.
func (s Set) AndNot(t Set) Set {
	out := append(Set(nil), s...)
	for i := range min(len(out), len(t)) {
		out[i] &^= t[i]
	}
	return out
}

// Intersects reports whether s and t share a member.
func (s Set) Intersects(t Set) bool {
	for i := range min(len(s), len(t)) {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t have the same members.
func (s Set) Equal(t Set) bool {
	if len(s) < len(t) {
		s, t = t, s
	}
	for i, w := range s {
		if i < len(t) {
			if w != t[i] {
				return false
			}
		} else if w != 0 {
			return false
		}
	}
	return true
}

// Ranks lists the members in ascending order.
func (s Set) Ranks() []ir.Rank {
	out := make([]ir.Rank, 0, s.Count())
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, ir.Rank(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// String renders the set for error messages.
func (s Set) String() string { return fmt.Sprintf("%v", s.Ranks()) }

// Obligated reports whether op's postcondition obligates rank r to end
// up holding chunk c: ReduceScatter only the chunk's owner, AllToAll
// only the addressed destination, every other operator every rank.
func Obligated(op ir.OpType, r ir.Rank, c ir.ChunkID, nRanks int) bool {
	switch op {
	case ir.OpReduceScatter, ir.OpAllToAll:
		return r == ir.Rank(int(c)%nRanks)
	default:
		return true
	}
}

// Origin returns the rank whose contribution an initially valid copy of
// chunk c at rank r represents. Copy operators (AllGather, Broadcast,
// AllToAll) have one origin per chunk whatever r is, and their
// postcondition obligates exactly that origin's copy.
func Origin(op ir.OpType, r ir.Rank, c ir.ChunkID, nRanks int) ir.Rank {
	switch op {
	case ir.OpAllGather:
		return ir.Rank(int(c) % nRanks)
	case ir.OpBroadcast:
		return 0
	case ir.OpAllToAll:
		return ir.Rank(int(c) / nRanks)
	default: // AllReduce / ReduceScatter: each rank starts with its own term
		return r
	}
}

// Holdings is the symbolic data plane: per (rank, chunk), either ⊥
// (invalid, nothing delivered yet) or the set of contributions held.
// Every set lives in one flat arena of ⌈NRanks/64⌉-word slots, indexed
// rank·NChunks + chunk. Delivered data always carries at least one
// contribution, so an empty slot is ⊥.
type Holdings struct {
	Op      ir.OpType
	NRanks  int
	NChunks int
	words   int
	arena   []uint64 // slot i is arena[i·words : (i+1)·words]
}

// InitialFrom builds the symbolic precondition of an operator: every
// location the precondition marks valid holds exactly the singleton
// contribution of its origin rank. initial is an optional override
// (ir.Algorithm.Initial): when non-nil, initial[r][c] decides validity
// instead of the operator default. The origin of a valid location is
// still the operator's: the rank whose contribution that location's
// initial data represents.
func InitialFrom(op ir.OpType, nRanks, nChunks int, initial [][]bool) (*Holdings, error) {
	if nRanks < 1 || nChunks < 1 {
		return nil, fmt.Errorf("verify: invalid shape %d ranks × %d chunks", nRanks, nChunks)
	}
	w := words(nRanks)
	h := &Holdings{Op: op, NRanks: nRanks, NChunks: nChunks, words: w,
		arena: make([]uint64, nRanks*nChunks*w)}
	for r := 0; r < nRanks; r++ {
		for c := 0; c < nChunks; c++ {
			holds := dag.InitiallyHolds(op, ir.Rank(r), ir.ChunkID(c), nRanks, nChunks)
			if initial != nil {
				holds = initial[r][c]
			}
			if holds {
				i := h.slot(ir.Rank(r), ir.ChunkID(c))
				o := int(Origin(op, ir.Rank(r), ir.ChunkID(c), nRanks))
				h.arena[i*w+o/64] = 1 << uint(o%64)
			}
		}
	}
	return h, nil
}

func (h *Holdings) slot(r ir.Rank, c ir.ChunkID) int { return int(r)*h.NChunks + int(c) }

// Valid reports whether (r, c) holds delivered data.
func (h *Holdings) Valid(r ir.Rank, c ir.ChunkID) bool { return !h.Set(r, c).Empty() }

// Set returns the contribution set at (r, c) (empty when invalid). The
// set aliases the holdings: it is read-only and changes with the next
// Apply.
func (h *Holdings) Set(r ir.Rank, c ir.ChunkID) Set {
	i := h.slot(r, c) * h.words
	return Set(h.arena[i : i+h.words : i+h.words])
}

// Apply replays one transfer symbolically. It fails on the two ways a
// trace can be semantically corrupt: reading a location nothing has
// delivered, and reducing overlapping contribution sets (double count).
func (h *Holdings) Apply(t ir.Transfer) error {
	if err := t.Validate(h.NRanks, h.NChunks); err != nil {
		return err
	}
	src, dst := h.Set(t.Src, t.Chunk), h.Set(t.Dst, t.Chunk)
	if src.Empty() {
		return fmt.Errorf("verify: %v reads undelivered chunk %d at rank %d", t, t.Chunk, t.Src)
	}
	switch t.Type {
	case ir.CommRecv:
		copy(dst, src)
	case ir.CommRecvReduceCopy:
		if dst.Empty() {
			return fmt.Errorf("verify: %v reduces into undelivered chunk %d at rank %d", t, t.Chunk, t.Dst)
		}
		if src.Intersects(dst) {
			return fmt.Errorf("verify: %v double-counts contributions %v (src holds %v, dst holds %v)",
				t, src.And(dst), src, dst)
		}
		for i, w := range src {
			dst[i] |= w
		}
	default:
		return fmt.Errorf("verify: %v has unknown comm type", t)
	}
	return nil
}

// Replay applies a trace in order onto the operator's symbolic
// precondition. The trace must be ordered consistently with the data
// flow that produced it — for compiled plans, ascending (step, chunk,
// src, dst) order (ir.Algorithm.Sorted), or the order a run completed
// its transfers in.
func Replay(op ir.OpType, nRanks, nChunks int, initial [][]bool, trace []ir.Transfer) (*Holdings, error) {
	return replay(op, nRanks, nChunks, initial, len(trace), func(i int) ir.Transfer { return trace[i] })
}

// replay is Replay over the n trace entries at(0), at(1), ….
func replay(op ir.OpType, nRanks, nChunks int, initial [][]bool, n int, at func(int) ir.Transfer) (*Holdings, error) {
	h, err := InitialFrom(op, nRanks, nChunks, initial)
	if err != nil {
		return nil, err
	}
	for i := range n {
		if err := h.Apply(at(i)); err != nil {
			return nil, fmt.Errorf("trace entry %d: %w", i, err)
		}
	}
	return h, nil
}

// Expect describes the degraded context a postcondition is judged in.
// The zero value is the healthy case: all ranks surviving, nothing lost.
type Expect struct {
	// Surviving[r] reports whether rank r is still part of the
	// communicator; nil means all ranks survive. Dead ranks' buffers are
	// unconstrained.
	Surviving []bool
	// Lost[c] is the set of contributions to chunk c that permanent
	// failures made unrecoverable (declared by the replanner); nil means
	// nothing was lost. A surviving rank must hold exactly the full set
	// minus Lost[c].
	Lost []Set
}

// ExpectFor returns the context an algorithm's postcondition is judged
// in: the healthy one, or for a process-group algorithm (ir.Embed) the
// group's view — members survive and every non-member's contribution
// counts as lost, so members must end with exactly the members'
// contributions and non-members are unconstrained. Only AllReduce has
// rank-independent group semantics under the chunk ownership
// conventions; other grouped operators are rejected.
func ExpectFor(a *ir.Algorithm) (Expect, error) {
	if a.Group == nil {
		return Expect{}, nil
	}
	if a.Op != ir.OpAllReduce {
		return Expect{}, fmt.Errorf("verify: grouped verification supports AllReduce only, got %v", a.Op)
	}
	e := Expect{Surviving: make([]bool, a.NRanks), Lost: make([]Set, a.NChunks)}
	for _, r := range a.Group {
		e.Surviving[r] = true
	}
	nonMembers := FullSet(a.NRanks).AndNot(SetOf(a.Group...))
	for c := range e.Lost {
		e.Lost[c] = nonMembers
	}
	return e, nil
}

func (e Expect) surviving(r ir.Rank) bool {
	return e.Surviving == nil || e.Surviving[r]
}

func (e Expect) lost(c ir.ChunkID) Set {
	if e.Lost == nil {
		return nil
	}
	return e.Lost[c]
}

// Postcondition proves the operator's (possibly degraded) postcondition
// over the holdings: every surviving rank that the operator obligates
// (Obligated) holds exactly the achievable contribution set, each
// contribution counted exactly once. Chunks whose achievable set is
// empty (all contributions lost) impose no obligation.
func (h *Holdings) Postcondition(e Expect) error {
	if e.Surviving != nil && len(e.Surviving) != h.NRanks {
		return fmt.Errorf("verify: Surviving has %d entries, want %d", len(e.Surviving), h.NRanks)
	}
	if e.Lost != nil && len(e.Lost) != h.NChunks {
		return fmt.Errorf("verify: Lost has %d entries, want %d", len(e.Lost), h.NChunks)
	}
	var reduce bool
	switch h.Op {
	case ir.OpAllReduce, ir.OpReduceScatter:
		reduce = true
	case ir.OpAllGather, ir.OpBroadcast, ir.OpAllToAll:
	default:
		return fmt.Errorf("verify: unknown operator %v", h.Op)
	}
	full := FullSet(h.NRanks)
	for c := 0; c < h.NChunks; c++ {
		chunk := ir.ChunkID(c)
		// Reduce chunks must gather every contribution not lost; copy
		// chunks carry their single origin's, unless that was lost.
		var want Set
		if reduce {
			want = full.AndNot(e.lost(chunk))
		} else if o := Origin(h.Op, 0, chunk, h.NRanks); !e.lost(chunk).Has(o) {
			want = SetOf(o)
		}
		if want.Empty() {
			continue
		}
		for r := 0; r < h.NRanks; r++ {
			rank := ir.Rank(r)
			if !Obligated(h.Op, rank, chunk, h.NRanks) || !e.surviving(rank) {
				continue
			}
			got := h.Set(rank, chunk)
			if got.Empty() {
				return fmt.Errorf("verify: %v postcondition: rank %d chunk %d holds no valid data, want contributions %v",
					h.Op, r, c, want)
			}
			if !got.Equal(want) {
				return fmt.Errorf("verify: %v postcondition: rank %d chunk %d holds contributions %v, want %v",
					h.Op, r, c, got, want)
			}
		}
	}
	return nil
}

// Check replays a trace and proves the postcondition in one call.
func Check(op ir.OpType, nRanks, nChunks int, initial [][]bool, trace []ir.Transfer, e Expect) (*Holdings, error) {
	h, err := Replay(op, nRanks, nChunks, initial, trace)
	return provePostcondition(h, err, e)
}

// CheckOrder is Check over the trace transfers[order[0]],
// transfers[order[1]], …, read in place (order is, for example,
// ir.Algorithm.Canonical's).
func CheckOrder(op ir.OpType, nRanks, nChunks int, initial [][]bool, transfers []ir.Transfer, order []int32, e Expect) (*Holdings, error) {
	h, err := replay(op, nRanks, nChunks, initial, len(order), func(i int) ir.Transfer { return transfers[order[i]] })
	return provePostcondition(h, err, e)
}

// provePostcondition finishes a check: the holdings a replay left, or
// its error, judged in e.
func provePostcondition(h *Holdings, err error, e Expect) (*Holdings, error) {
	if err != nil {
		return nil, err
	}
	if err := h.Postcondition(e); err != nil {
		return nil, err
	}
	return h, nil
}
