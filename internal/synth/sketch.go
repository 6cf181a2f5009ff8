package synth

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/resccl/resccl/internal/ir"
)

// This file implements the sketch-guided plan family the search
// (search.go) explores. A communication sketch à la TACCL fixes the
// coarse shape of a plan — how chunks move inside a node and how they
// cross the inter-node fabric — and leaves a small set of discrete
// knobs (routing family, rail assignment, rail rotation) for the search
// to mutate. Every point in the family is a complete, valid algorithm;
// the knobs trade steps against rounds exactly along the SCCL pareto
// frontier: mesh/direct members minimize steps (latency-bound regime),
// ring members minimize rounds (bandwidth-bound regime), trees sit in
// between.

// IntraKind selects the intra-node routing family of a sketch.
type IntraKind uint8

// Intra-node routing families.
const (
	// IntraMesh fans a chunk out over the NVSwitch full mesh in one
	// logical step (fewest steps, gpn−1 concurrent rounds).
	IntraMesh IntraKind = iota
	// IntraRing forwards a chunk around the local ring (gpn−1 steps,
	// one round each — the bandwidth-optimal schedule).
	IntraRing
)

// InterKind selects the inter-node routing family of a sketch.
type InterKind uint8

// Inter-node routing families.
const (
	// InterDirect ships a chunk point-to-point from the source node to
	// every other node (one inter hop per destination).
	InterDirect InterKind = iota
	// InterRing forwards a chunk around the node ring (nNodes−1 hops,
	// each carrying the minimum volume).
	InterRing
	// InterTree broadcasts/reduces a chunk over a binomial tree of
	// nodes (⌈log2 nNodes⌉ hop depth).
	InterTree
)

// Genome is one point of the sketch family: a complete parameterization
// from which Build derives a verified algorithm deterministically.
type Genome struct {
	// Op is the collective operator (AllGather, AllReduce or
	// ReduceScatter).
	Op ir.OpType
	// NNodes and GPN fix the topology shape the plan targets.
	NNodes, GPN int
	// Intra and Inter select the routing families.
	Intra IntraKind
	Inter InterKind
	// Spread assigns every chunk its own NIC rail (local index
	// c mod gpn, rotated). Concentrated plans (Spread=false) relay all
	// of a node pair's traffic through one rotating rail, the
	// relay-concentration TACCL sketches express.
	Spread bool
	// Rotate shifts the rail assignment by a constant local offset —
	// the knob the local search uses to rebalance NIC load.
	Rotate int
}

// sketchPrefix starts every encoded genome name; the registry and the
// dispatch table rebuild plans from such names alone.
const sketchPrefix = "synth:sketch/"

var opCodes = []struct {
	op   ir.OpType
	code string
}{
	{ir.OpAllGather, "ag"},
	{ir.OpAllReduce, "ar"},
	{ir.OpReduceScatter, "rs"},
}

func opCode(op ir.OpType) (string, bool) {
	for _, e := range opCodes {
		if e.op == op {
			return e.code, true
		}
	}
	return "", false
}

// SketchCovers reports whether the sketch family can express op.
func SketchCovers(op ir.OpType) bool {
	_, ok := opCode(op)
	return ok
}

func (k IntraKind) code() byte {
	if k == IntraRing {
		return 'r'
	}
	return 'm'
}

func (k InterKind) code() byte {
	switch k {
	case InterRing:
		return 'r'
	case InterTree:
		return 't'
	default:
		return 'd'
	}
}

// Encode renders the genome as a registry-style plan name, e.g.
// "synth:sketch/ar/2x8/im-er-s1-r3". ParseGenome inverts it.
func (g Genome) Encode() string {
	spread := 0
	if g.Spread {
		spread = 1
	}
	code, _ := opCode(g.Op)
	return fmt.Sprintf("%s%s/%dx%d/i%c-e%c-s%d-r%d",
		sketchPrefix, code, g.NNodes, g.GPN,
		g.Intra.code(), g.Inter.code(), spread, g.Rotate)
}

// IsSketchName reports whether name encodes a sketch-family genome.
func IsSketchName(name string) bool { return strings.HasPrefix(name, sketchPrefix) }

// ParseGenome decodes a name produced by Encode.
func ParseGenome(name string) (Genome, error) {
	var g Genome
	if !IsSketchName(name) {
		return g, fmt.Errorf("synth: %q is not a sketch plan name", name)
	}
	parts := strings.Split(strings.TrimPrefix(name, sketchPrefix), "/")
	if len(parts) != 3 {
		return g, fmt.Errorf("synth: malformed sketch name %q", name)
	}
	opOK := false
	for _, e := range opCodes {
		if e.code == parts[0] {
			g.Op, opOK = e.op, true
		}
	}
	if !opOK {
		return g, fmt.Errorf("synth: unknown op code %q in %q", parts[0], name)
	}
	if _, err := fmt.Sscanf(parts[1], "%dx%d", &g.NNodes, &g.GPN); err != nil {
		return g, fmt.Errorf("synth: malformed shape in %q", name)
	}
	for _, field := range strings.Split(parts[2], "-") {
		if len(field) < 2 {
			return g, fmt.Errorf("synth: malformed knob %q in %q", field, name)
		}
		val := field[1:]
		switch field[0] {
		case 'i':
			switch val {
			case "m":
				g.Intra = IntraMesh
			case "r":
				g.Intra = IntraRing
			default:
				return g, fmt.Errorf("synth: unknown intra family %q in %q", val, name)
			}
		case 'e':
			switch val {
			case "d":
				g.Inter = InterDirect
			case "r":
				g.Inter = InterRing
			case "t":
				g.Inter = InterTree
			default:
				return g, fmt.Errorf("synth: unknown inter family %q in %q", val, name)
			}
		case 's':
			g.Spread = val == "1"
		case 'r':
			n, err := strconv.Atoi(val)
			if err != nil {
				return g, fmt.Errorf("synth: malformed rotation %q in %q", val, name)
			}
			g.Rotate = n
		default:
			return g, fmt.Errorf("synth: unknown knob %q in %q", field, name)
		}
	}
	return g, nil
}

// BuildNamed rebuilds a sketch plan from its encoded name alone, so a
// winning plan can be reconstructed without carrying transfer lists
// around. Callers that resolve outside names go through expert.BuildOn,
// which also checks the encoded shape before building.
func BuildNamed(name string) (*ir.Algorithm, error) {
	g, err := ParseGenome(name)
	if err != nil {
		return nil, err
	}
	return g.Build()
}

// builder tracks per-location data readiness while a genome's routes
// are laid out, so step numbers encode exactly the dependency and
// hazard ordering the verifier and analyzer demand.
type builder struct {
	a *ir.Algorithm
	// avail[r][c] is the first step at which rank r may read its copy
	// of chunk c; -1 means the location holds no (or stale) data.
	avail [][]int
	// lastRead[r][c] is the last step the location was read as a
	// transfer source; overwrites are placed strictly after it.
	lastRead [][]int
	// lastWrite[r][c] is the last step the location was written. Unlike
	// avail it survives phase resets, so a later phase's overwrite can
	// never be scheduled at or before a stale write.
	lastWrite [][]int
	// nicNext[r] serializes rank r's inter-node sends: one NIC flow at
	// a time, the queueing a shared 200 Gb/s port imposes.
	nicNext []int
}

func newBuilder(a *ir.Algorithm) *builder {
	b := &builder{
		a:         a,
		avail:     make([][]int, a.NRanks),
		lastRead:  make([][]int, a.NRanks),
		lastWrite: make([][]int, a.NRanks),
		nicNext:   make([]int, a.NRanks),
	}
	for r := range b.avail {
		b.avail[r] = make([]int, a.NChunks)
		b.lastRead[r] = make([]int, a.NChunks)
		b.lastWrite[r] = make([]int, a.NChunks)
		for c := range b.avail[r] {
			b.avail[r][c] = -1
			b.lastRead[r][c] = -1
			b.lastWrite[r][c] = -1
		}
	}
	return b
}

// send places one transfer no earlier than minStep, respecting source
// readiness, destination write-after-read ordering and (for reductions)
// destination readiness; it returns the chosen step. inter additionally
// serializes the hop behind the source rank's previous inter sends.
func (b *builder) send(src, dst ir.Rank, c ir.ChunkID, typ ir.CommType, minStep int, inter bool) int {
	s := minStep
	if av := b.avail[src][c]; av > s {
		s = av
	}
	if typ == ir.CommRecvReduceCopy {
		if av := b.avail[dst][c]; av > s {
			s = av
		}
	}
	if lr := b.lastRead[dst][c]; lr >= s {
		s = lr + 1
	}
	if lw := b.lastWrite[dst][c]; lw >= s {
		s = lw + 1
	}
	if inter {
		if n := b.nicNext[src]; n > s {
			s = n
		}
		b.nicNext[src] = s + 1
	}
	b.a.Transfers = append(b.a.Transfers, ir.Transfer{
		Src: src, Dst: dst, Step: ir.Step(s), Chunk: c, Type: typ,
	})
	if lr := b.lastRead[src][c]; s > lr {
		b.lastRead[src][c] = s
	}
	b.avail[dst][c] = s + 1
	b.lastWrite[dst][c] = s
	return s
}

// Build derives the genome's algorithm. The result carries the encoded
// genome as its name, NChunks = NRanks, and passes ir.Validate; the
// search layers the correctness gates (collective, verify, analyze) on
// top.
func (g Genome) Build() (*ir.Algorithm, error) {
	if g.NNodes < 1 || g.GPN < 1 {
		return nil, fmt.Errorf("synth: sketch needs a positive shape, got %d×%d", g.NNodes, g.GPN)
	}
	n := g.NNodes * g.GPN
	if n < 2 {
		return nil, fmt.Errorf("synth: sketch needs ≥2 ranks, got %d", n)
	}
	if _, ok := opCode(g.Op); !ok {
		return nil, fmt.Errorf("synth: sketch does not cover %v", g.Op)
	}
	if g.Rotate < 0 || g.Rotate >= g.GPN {
		return nil, fmt.Errorf("synth: rotation %d out of range for %d GPUs/node", g.Rotate, g.GPN)
	}
	a := &ir.Algorithm{
		Name:    g.Encode(),
		Op:      g.Op,
		NRanks:  n,
		NChunks: n,
		NWarps:  16,
	}
	b := newBuilder(a)
	switch g.Op {
	case ir.OpAllGather:
		for c := 0; c < n; c++ {
			b.avail[c][c] = 0
		}
		for c := 0; c < n; c++ {
			g.distribute(b, ir.ChunkID(c), ir.Rank(c))
		}
	case ir.OpReduceScatter:
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				b.avail[r][c] = 0
			}
		}
		for c := 0; c < n; c++ {
			g.converge(b, ir.ChunkID(c), ir.Rank(c))
		}
	case ir.OpAllReduce:
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				b.avail[r][c] = 0
			}
		}
		for c := 0; c < n; c++ {
			g.converge(b, ir.ChunkID(c), ir.Rank(c))
		}
		// After the reduce phase only the owner holds the fully reduced
		// chunk; every other copy is a stale partial the broadcast phase
		// overwrites (send's lastRead tracking orders those writes after
		// the partials' final reads).
		for c := 0; c < n; c++ {
			for r := 0; r < n; r++ {
				if r != c {
					b.avail[r][c] = -1
				}
			}
			g.distribute(b, ir.ChunkID(c), ir.Rank(c))
		}
	}
	return a, a.Validate()
}

// rank composes a global rank from (node, local index).
func (g Genome) rank(node, local int) ir.Rank { return ir.Rank(node*g.GPN + local) }

// rail picks the local index carrying chunk c between srcNode and
// dstNode. Ring and tree routes ignore the destination so the chunk
// stays on one rail across multi-hop paths.
func (g Genome) rail(c ir.ChunkID, srcNode, dstNode int) int {
	if g.GPN == 1 {
		return 0
	}
	if g.Spread {
		return (int(c) + g.Rotate) % g.GPN
	}
	if g.Inter == InterDirect {
		return (srcNode + dstNode + g.Rotate) % g.GPN
	}
	return g.Rotate % g.GPN
}

// distribute routes chunk c from owner to every rank: intra fan-out on
// the owner's node, inter shipping along the genome's family, intra
// fan-out on every receiving node. Inter hops overlap the owner-side
// fan-out whenever the rail rank already holds the chunk.
func (g Genome) distribute(b *builder, c ir.ChunkID, owner ir.Rank) {
	sn := int(owner) / g.GPN
	g.fanOut(b, c, sn)
	if g.NNodes == 1 {
		return
	}
	switch g.Inter {
	case InterDirect:
		for off := 1; off < g.NNodes; off++ {
			dn := (sn + off) % g.NNodes
			l := g.rail(c, sn, dn)
			b.send(g.rank(sn, l), g.rank(dn, l), c, ir.CommRecv, 0, true)
		}
	case InterRing:
		l := g.rail(c, sn, sn)
		for hop := 0; hop < g.NNodes-1; hop++ {
			a := (sn + hop) % g.NNodes
			d := (sn + hop + 1) % g.NNodes
			b.send(g.rank(a, l), g.rank(d, l), c, ir.CommRecv, 0, true)
		}
	case InterTree:
		l := g.rail(c, sn, sn)
		// Binomial doubling over node positions relative to the owner:
		// in round k, every holding position p < k ships to p+k.
		for k := 1; k < g.NNodes; k <<= 1 {
			for p := 0; p < k && p+k < g.NNodes; p++ {
				a := (sn + p) % g.NNodes
				d := (sn + p + k) % g.NNodes
				b.send(g.rank(a, l), g.rank(d, l), c, ir.CommRecv, 0, true)
			}
		}
	}
	for off := 1; off < g.NNodes; off++ {
		g.fanOut(b, c, (sn+off)%g.NNodes)
	}
}

// fanOut delivers chunk c to every rank of node nd from the node's
// earliest holder: one concurrent step over the mesh, or a walk around
// the local ring.
func (g Genome) fanOut(b *builder, c ir.ChunkID, nd int) {
	if g.GPN == 1 {
		return
	}
	holder, at := -1, int(^uint(0)>>1)
	for l := 0; l < g.GPN; l++ {
		r := g.rank(nd, l)
		if av := b.avail[r][c]; av >= 0 && av < at {
			holder, at = l, av
		}
	}
	if holder < 0 {
		return
	}
	switch g.Intra {
	case IntraMesh:
		src := g.rank(nd, holder)
		for off := 1; off < g.GPN; off++ {
			dst := g.rank(nd, (holder+off)%g.GPN)
			if b.avail[dst][c] >= 0 {
				continue
			}
			b.send(src, dst, c, ir.CommRecv, at, false)
		}
	case IntraRing:
		for off := 0; off < g.GPN-1; off++ {
			src := g.rank(nd, (holder+off)%g.GPN)
			dst := g.rank(nd, (holder+off+1)%g.GPN)
			if b.avail[dst][c] >= 0 {
				continue
			}
			b.send(src, dst, c, ir.CommRecv, 0, false)
		}
	}
}

// converge reduces every rank's term of chunk c into owner: intra
// reduction into each node's rail representative, then an inter
// reduction along the genome's family ending at the owner rank.
func (g Genome) converge(b *builder, c ir.ChunkID, owner ir.Rank) {
	sn := int(owner) / g.GPN
	ownerLocal := int(owner) % g.GPN
	rep := func(nd int) int {
		if nd == sn {
			return ownerLocal
		}
		return g.rail(c, nd, sn)
	}
	for nd := 0; nd < g.NNodes; nd++ {
		g.reduceLocal(b, c, nd, rep(nd))
	}
	if g.NNodes == 1 {
		return
	}
	switch g.Inter {
	case InterDirect:
		for off := 1; off < g.NNodes; off++ {
			nd := (sn + off) % g.NNodes
			b.send(g.rank(nd, rep(nd)), owner, c, ir.CommRecvReduceCopy, 0, true)
		}
	case InterRing:
		// Accumulate around the node ring ending at the owner: each hop
		// merges the running partial into the next node's rail partial.
		for hop := 1; hop < g.NNodes; hop++ {
			a := (sn + hop) % g.NNodes
			d := (sn + hop + 1) % g.NNodes
			b.send(g.rank(a, rep(a)), g.rank(d, rep(d)), c, ir.CommRecvReduceCopy, 0, true)
		}
	case InterTree:
		// Binomial halving toward position 0 (the owner's node): the
		// exact reverse of the distribute tree.
		top := 1
		for top < g.NNodes {
			top <<= 1
		}
		for k := top >> 1; k >= 1; k >>= 1 {
			for p := 0; p < k && p+k < g.NNodes; p++ {
				a := (sn + p + k) % g.NNodes
				d := (sn + p) % g.NNodes
				b.send(g.rank(a, rep(a)), g.rank(d, rep(d)), c, ir.CommRecvReduceCopy, 0, true)
			}
		}
	}
}

// reduceLocal folds every local term of chunk c on node nd into local
// index rep: pairwise over the mesh (serialized per destination
// location) or accumulated around the local ring.
func (g Genome) reduceLocal(b *builder, c ir.ChunkID, nd, rep int) {
	if g.GPN == 1 {
		return
	}
	dst := g.rank(nd, rep)
	switch g.Intra {
	case IntraMesh:
		for off := 1; off < g.GPN; off++ {
			src := g.rank(nd, (rep+off)%g.GPN)
			b.send(src, dst, c, ir.CommRecvReduceCopy, 0, false)
		}
	case IntraRing:
		for off := 1; off < g.GPN-1; off++ {
			src := g.rank(nd, (rep+off)%g.GPN)
			next := g.rank(nd, (rep+off+1)%g.GPN)
			b.send(src, next, c, ir.CommRecvReduceCopy, 0, false)
		}
		last := g.rank(nd, (rep+g.GPN-1)%g.GPN)
		b.send(last, dst, c, ir.CommRecvReduceCopy, 0, false)
	}
}
