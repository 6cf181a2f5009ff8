package kernel

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// Plan file format: a compiled kernel serialized together with the
// algorithm and topology it was compiled for, so the offline compiler
// can run once and the runtime (or another host) can load the exact
// executable plan later — the deployment model of §5.1's three-layer
// architecture. Task identity is stable because dependency analysis
// assigns TaskIDs in deterministic (step, chunk, src, dst) order.

// FileVersion is the current plan-file schema version.
const FileVersion = 1

type fileTransfer struct {
	Src   int  `json:"src"`
	Dst   int  `json:"dst"`
	Step  int  `json:"step"`
	Chunk int  `json:"chunk"`
	RRC   bool `json:"rrc,omitempty"`
}

type fileSlot struct {
	Task int `json:"task"`
	Kind int `json:"kind"`
}

type fileTB struct {
	ID    int        `json:"id"`
	Rank  int        `json:"rank"`
	Order int        `json:"order"`
	Label string     `json:"label,omitempty"`
	Slots []fileSlot `json:"slots"`
}

type fileProfile struct {
	Name         string  `json:"name"`
	NVLinkBW     float64 `json:"nvlinkBW"`
	NICBW        float64 `json:"nicBW"`
	LatIntraNS   int64   `json:"latIntraNS"`
	LatInterNS   int64   `json:"latInterNS"`
	LatCrossNS   int64   `json:"latCrossRackNS"`
	TBCapIntra   float64 `json:"tbCapIntra"`
	TBCapInter   float64 `json:"tbCapInter"`
	Gamma        float64 `json:"gamma"`
	InterpNS     int64   `json:"interpCostNS"`
	KernelLoadNS int64   `json:"kernelLoadNS"`
}

// fileTopo omits the fabric and its spine count on flat topologies, and
// planFile the protocol tier on auto plans: a flat, auto plan saves the
// same bytes as before those fields existed.
type fileTopo struct {
	Profile        fileProfile `json:"profile"`
	NNodes         int         `json:"nNodes"`
	GPUsPerNode    int         `json:"gpusPerNode"`
	NICsPerNode    int         `json:"nicsPerNode"`
	ServersPerRack int         `json:"serversPerRack"`
	Fabric         string      `json:"fabric,omitempty"`
	Spines         int         `json:"spines,omitempty"`
}

type fileAlgo struct {
	Name        string         `json:"name"`
	Op          string         `json:"op"`
	NRanks      int            `json:"nRanks"`
	NChunks     int            `json:"nChunks"`
	NChannels   int            `json:"nChannels,omitempty"`
	NWarps      int            `json:"nWarps,omitempty"`
	StageBounds []int          `json:"stageBounds,omitempty"`
	Transfers   []fileTransfer `json:"transfers"`
}

type planFile struct {
	Version   int      `json:"version"`
	Name      string   `json:"name"`
	Mode      int      `json:"mode"`
	MBBarrier bool     `json:"mbBarrier,omitempty"`
	Protocol  string   `json:"protocol,omitempty"`
	Topology  fileTopo `json:"topology"`
	Algorithm fileAlgo `json:"algorithm"`
	TBs       []fileTB `json:"tbs"`
	SendTB    []int    `json:"sendTB"`
	RecvTB    []int    `json:"recvTB"`
	LinkPreds [][]int  `json:"linkPreds,omitempty"`
	TaskSub   []int    `json:"taskSub,omitempty"`
	TaskPos   []int    `json:"taskPos,omitempty"`
}

// Save serializes a validated kernel and its topology as JSON.
func Save(k *Kernel, t *topo.Topology, w io.Writer) error {
	if err := Validate(k); err != nil {
		return fmt.Errorf("kernel: refusing to save invalid kernel: %w", err)
	}
	algo := k.Graph.Algo
	pf := planFile{
		Version:   FileVersion,
		Name:      k.Name,
		Mode:      int(k.Mode),
		MBBarrier: k.MBBarrier,
		Topology: fileTopo{
			Profile: fileProfile{
				Name:         t.Profile.Name,
				NVLinkBW:     t.NVLinkBW,
				NICBW:        t.NICBW,
				LatIntraNS:   t.LatIntra.Nanoseconds(),
				LatInterNS:   t.LatInter.Nanoseconds(),
				LatCrossNS:   t.LatCrossRack.Nanoseconds(),
				TBCapIntra:   t.TBCapIntra,
				TBCapInter:   t.TBCapInter,
				Gamma:        t.Gamma,
				InterpNS:     t.InterpCost.Nanoseconds(),
				KernelLoadNS: t.KernelLoad.Nanoseconds(),
			},
			NNodes:         t.NNodes,
			GPUsPerNode:    t.GPUsPerNode,
			NICsPerNode:    t.NICsPerNode,
			ServersPerRack: t.ServersPerRack,
		},
		Algorithm: fileAlgo{
			Name:      algo.Name,
			Op:        algo.Op.String(),
			NRanks:    algo.NRanks,
			NChunks:   algo.NChunks,
			NChannels: algo.NChannels,
			NWarps:    algo.NWarps,
		},
		SendTB:  k.SendTB,
		RecvTB:  k.RecvTB,
		TaskSub: k.TaskSub,
		TaskPos: k.TaskPos,
	}
	if k.Protocol.Forced() {
		pf.Protocol = k.Protocol.String()
	}
	if f := t.Fabric(); f.Kind != "flat" {
		pf.Topology.Fabric, pf.Topology.Spines = f.Kind, f.Spines
	}
	for _, s := range algo.StageBounds {
		pf.Algorithm.StageBounds = append(pf.Algorithm.StageBounds, int(s))
	}
	for _, tr := range algo.Sorted() {
		pf.Algorithm.Transfers = append(pf.Algorithm.Transfers, fileTransfer{
			Src: int(tr.Src), Dst: int(tr.Dst), Step: int(tr.Step), Chunk: int(tr.Chunk),
			RRC: tr.Type == ir.CommRecvReduceCopy,
		})
	}
	for _, tb := range k.TBs {
		ftb := fileTB{ID: tb.ID, Rank: int(tb.Rank), Order: int(tb.Order), Label: tb.Label}
		for _, p := range tb.Slots {
			ftb.Slots = append(ftb.Slots, fileSlot{Task: int(p.Task), Kind: int(p.Kind)})
		}
		pf.TBs = append(pf.TBs, ftb)
	}
	for t := range k.LinkPreds.Len() {
		preds := k.LinkPreds.Row(t)
		row := make([]int, len(preds))
		for i, p := range preds {
			row[i] = int(p)
		}
		pf.LinkPreds = append(pf.LinkPreds, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(pf)
}

// Load reads a plan file, rebuilds the dependency graph (TaskIDs are
// deterministic for a given algorithm/topology pair) and returns a
// validated kernel together with the topology it targets, on the fabric
// the file names.
func Load(r io.Reader) (*Kernel, *topo.Topology, error) {
	var pf planFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&pf); err != nil {
		return nil, nil, fmt.Errorf("kernel: decoding plan file: %w", err)
	}
	if pf.Version != FileVersion {
		return nil, nil, fmt.Errorf("kernel: unsupported plan file version %d (want %d)", pf.Version, FileVersion)
	}
	p := pf.Topology.Profile
	prof := topo.Profile{
		Name:         p.Name,
		NVLinkBW:     p.NVLinkBW,
		NICBW:        p.NICBW,
		LatIntra:     time.Duration(p.LatIntraNS),
		LatInter:     time.Duration(p.LatInterNS),
		LatCrossRack: time.Duration(p.LatCrossNS),
		TBCapIntra:   p.TBCapIntra,
		TBCapInter:   p.TBCapInter,
		Gamma:        p.Gamma,
		InterpCost:   time.Duration(p.InterpNS),
		KernelLoad:   time.Duration(p.KernelLoadNS),
	}
	fabric := topo.Fabric{Kind: pf.Topology.Fabric, Spines: pf.Topology.Spines}
	tp, err := fabric.New(pf.Topology.NNodes, pf.Topology.GPUsPerNode, prof,
		topo.WithNICs(pf.Topology.NICsPerNode),
		topo.WithServersPerRack(pf.Topology.ServersPerRack))
	if err != nil {
		return nil, nil, fmt.Errorf("kernel: plan file: %w", err)
	}
	proto := ir.ProtoAuto
	if pf.Protocol != "" {
		if proto, err = ir.ParseProtocol(pf.Protocol); err != nil {
			return nil, nil, fmt.Errorf("kernel: plan file: %w", err)
		}
	}

	op, err := ir.ParseOpType(pf.Algorithm.Op)
	if err != nil {
		return nil, nil, err
	}
	algo := &ir.Algorithm{
		Name:      pf.Algorithm.Name,
		Op:        op,
		NRanks:    pf.Algorithm.NRanks,
		NChunks:   pf.Algorithm.NChunks,
		NChannels: pf.Algorithm.NChannels,
		NWarps:    pf.Algorithm.NWarps,
	}
	for _, s := range pf.Algorithm.StageBounds {
		algo.StageBounds = append(algo.StageBounds, ir.Step(s))
	}
	for _, tr := range pf.Algorithm.Transfers {
		ct := ir.CommRecv
		if tr.RRC {
			ct = ir.CommRecvReduceCopy
		}
		algo.Transfers = append(algo.Transfers, ir.Transfer{
			Src: ir.Rank(tr.Src), Dst: ir.Rank(tr.Dst),
			Step: ir.Step(tr.Step), Chunk: ir.ChunkID(tr.Chunk), Type: ct,
		})
	}
	g, err := dag.Build(algo, tp)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel: rebuilding dependency graph: %w", err)
	}
	if len(pf.LinkPreds) > len(g.Tasks) {
		return nil, nil, fmt.Errorf("kernel: plan file has link preds for %d tasks, graph has %d", len(pf.LinkPreds), len(g.Tasks))
	}
	k := &Kernel{
		Name:      pf.Name,
		Graph:     g,
		Mode:      ExecMode(pf.Mode),
		MBBarrier: pf.MBBarrier,
		Protocol:  proto,
		SendTB:    pf.SendTB,
		RecvTB:    pf.RecvTB,
		LinkPreds: dag.CSR{Off: make([]int32, len(g.Tasks)+1)},
		TaskSub:   pf.TaskSub,
		TaskPos:   pf.TaskPos,
	}
	// Rows the file leaves out are empty.
	for i := range g.Tasks {
		if i < len(pf.LinkPreds) {
			for _, p := range pf.LinkPreds[i] {
				k.LinkPreds.Items = append(k.LinkPreds.Items, ir.TaskID(p))
			}
		}
		k.LinkPreds.Off[i+1] = int32(len(k.LinkPreds.Items))
	}
	for _, ftb := range pf.TBs {
		tb := &TBProgram{ID: ftb.ID, Rank: ir.Rank(ftb.Rank), Order: MBOrder(ftb.Order), Label: ftb.Label}
		for _, sl := range ftb.Slots {
			if sl.Task < 0 || sl.Task >= len(g.Tasks) {
				return nil, nil, fmt.Errorf("kernel: plan file references unknown task %d", sl.Task)
			}
			tb.Slots = append(tb.Slots, ir.Primitive{Task: ir.TaskID(sl.Task), Kind: ir.PrimKind(sl.Kind)})
		}
		k.TBs = append(k.TBs, tb)
	}
	if err := Validate(k); err != nil {
		return nil, nil, fmt.Errorf("kernel: loaded plan invalid: %w", err)
	}
	return k, tp, nil
}
