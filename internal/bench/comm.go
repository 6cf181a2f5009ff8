package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// Table1 measures global link utilization while the MSCCL backend
// executes expert (MSCCLang) and synthesized (TACCL/TECCL) plans at
// three cluster scales — the paper's motivation table.
func Table1(opts Options) ([]*Table, error) {
	opts = opts.init()
	t := &Table{
		ID:     "table1",
		Title:  "Global link utilization on the MSCCL backend",
		Header: []string{"Topo Scale", "MS-AG", "MS-AR", "TA-AG", "TA-AR", "TE-AG"},
		Notes: []string{
			"paper: 1 server 76.7/71.0/51.6/45.7/52.7%; 2 servers 67.5/61.8/34.3/31.8/33.2%; 4 servers 66.8/46.1/44.6/41.9/38.1%",
		},
	}
	buf := int64(1 << 30)
	if opts.Quick {
		buf = 256 << 20
	}
	msccl := backend.NewMSCCL()
	scales := []struct {
		label  string
		nNodes int
	}{
		{"1 Server (8 GPUs)", 1},
		{"2 Servers (16 GPUs)", 2},
		{"4 Servers (32 GPUs)", 4},
	}
	// Each scale's columns by registry name: the MSCCLang expert plans
	// (the NVSwitch full mesh for AllGather and the classic ring for
	// AllReduce inside one server, msccl-tools' canonical examples; the
	// hierarchical mesh across servers), then the synthesized plans.
	columns := func(nNodes int) []string {
		if nNodes == 1 {
			return []string{"mesh-allgather", "ring-allreduce", "synth:taccl-allgather", "synth:taccl-allreduce", "synth:teccl-allgather"}
		}
		return []string{"hm-allgather", "hm-allreduce", "synth:taccl-allgather", "synth:taccl-allreduce", "synth:teccl-allgather"}
	}
	const nCols = 5
	cells := make([]string, len(scales)*nCols)
	err := runCells(opts, len(cells), func(c int) error {
		sc := scales[c/nCols]
		tp := topo.New(sc.nNodes, 8, topo.A100())
		algo, err := expert.BuildOn(columns(sc.nNodes)[c%nCols], sc.nNodes, 8)
		if err != nil {
			return err
		}
		plan, err := compile(opts, msccl, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return fmt.Errorf("table1 %s/%s: %w", sc.label, algo.Name, err)
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return fmt.Errorf("table1 %s/%s: %w", sc.label, algo.Name, err)
		}
		cells[c] = pct(res[0].MeanLinkUtilization())
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, sc := range scales {
		t.AddRow(append([]string{sc.label}, cells[si*nCols:(si+1)*nCols]...)...)
	}
	return []*Table{t}, nil
}

// bwFigure renders one expert/synth bandwidth comparison figure: one
// table per (operator, topology) with a GB/s column per backend, each
// running the registry algorithm names[operator]. The caller must have
// initialized opts.
func bwFigure(id, title string, opts Options, shapes [][2]int, names map[ir.OpType]string, relative bool) ([]*Table, error) {

	bufs := bufSweep(opts, paperBufs)
	var out []*Table
	for _, shape := range shapes {
		nNodes, gpn := shape[0], shape[1]
		tp := topo.New(nNodes, gpn, topo.A100())
		for _, op := range []ir.OpType{ir.OpAllGather, ir.OpAllReduce} {
			algo, err := expert.BuildOn(names[op], nNodes, gpn)
			if err != nil {
				return nil, err
			}
			series, err := bandwidth(opts, tp, algo, bufs)
			if err != nil {
				return nil, err
			}
			t := &Table{
				ID:    id,
				Title: fmt.Sprintf("%s — %s, %d×%d GPUs (%d ranks)", title, algo.Name, nNodes, gpn, tp.NRanks()),
			}
			if relative {
				t.Header = []string{"Buffer", "MSCCL (GB/s)", "ResCCL (GB/s)", "speedup"}
				for i, buf := range bufs {
					sp := series["ResCCL"][i] / series["MSCCL"][i]
					t.AddRow(mbLabel(buf), gb(series["MSCCL"][i]), gb(series["ResCCL"][i]), fmt.Sprintf("%.2fx", sp))
				}
			} else {
				t.Header = []string{"Buffer", "NCCL (GB/s)", "MSCCL (GB/s)", "ResCCL (GB/s)", "vs NCCL", "vs MSCCL"}
				for i, buf := range bufs {
					t.AddRow(mbLabel(buf),
						gb(series["NCCL"][i]), gb(series["MSCCL"][i]), gb(series["ResCCL"][i]),
						fmt.Sprintf("%.2fx", series["ResCCL"][i]/series["NCCL"][i]),
						fmt.Sprintf("%.2fx", series["ResCCL"][i]/series["MSCCL"][i]))
				}
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// The algorithms the bandwidth figures run: the hierarchical mesh (every
// figure shape spans several servers) and the promoted TACCL and TECCL
// plans.
var (
	expertNames = map[ir.OpType]string{ir.OpAllGather: "hm-allgather", ir.OpAllReduce: "hm-allreduce"}
	tacclNames  = map[ir.OpType]string{ir.OpAllGather: "synth:taccl-allgather", ir.OpAllReduce: "synth:taccl-allreduce"}
	tecclNames  = map[ir.OpType]string{ir.OpAllGather: "synth:teccl-allgather", ir.OpAllReduce: "synth:teccl-allreduce"}
)

// Figure6 reproduces the expert-designed AllGather/AllReduce bandwidth
// sweep on the main topologies (16 and 32 GPUs).
func Figure6(opts Options) ([]*Table, error) {
	return bwFigure("fig6", "Expert-designed bandwidth", opts.init(), [][2]int{{2, 8}, {4, 8}}, expertNames, false)
}

// Figure7 reproduces the synthesized-algorithm speedups of ResCCL over
// MSCCL (TACCL and TECCL plans) on the main topologies.
func Figure7(opts Options) ([]*Table, error) {
	opts = opts.init()
	ta, err := bwFigure("fig7", "TACCL-synthesized speedup", opts, [][2]int{{2, 8}, {4, 8}}, tacclNames, true)
	if err != nil {
		return nil, err
	}
	te, err := bwFigure("fig7", "TECCL-synthesized speedup", opts, [][2]int{{2, 8}, {4, 8}}, tecclNames, true)
	if err != nil {
		return nil, err
	}
	return append(ta, te...), nil
}

// Figure8 runs the expert algorithms on the additional topologies (two
// and four servers of four GPUs each).
func Figure8(opts Options) ([]*Table, error) {
	return bwFigure("fig8", "Expert-designed bandwidth (additional topologies)", opts.init(),
		[][2]int{{2, 4}, {4, 4}}, expertNames, false)
}

// Figure9 runs the synthesized algorithms on the additional topologies.
func Figure9(opts Options) ([]*Table, error) {
	opts = opts.init()
	ta, err := bwFigure("fig9", "TACCL-synthesized speedup (additional topologies)", opts,
		[][2]int{{2, 4}, {4, 4}}, tacclNames, true)
	if err != nil {
		return nil, err
	}
	te, err := bwFigure("fig9", "TECCL-synthesized speedup (additional topologies)", opts,
		[][2]int{{2, 4}, {4, 4}}, tecclNames, true)
	if err != nil {
		return nil, err
	}
	return append(ta, te...), nil
}

// Figure11 reproduces the V100/100G heterogeneous-cluster comparison:
// HM-AllGather, HM-ReduceScatter and HM-AllReduce under all three
// backends across buffer sizes.
func Figure11(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 8, topo.V100())
	bufs := bufSweep(opts, []int64{16 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20, 1 << 30, 2 << 30, 4 << 30})
	ops := []struct {
		label string
		name  string
	}{
		{"HM-AllGather", "hm-allgather"},
		{"HM-ReduceScatter", "hm-reducescatter"},
		{"HM-AllReduce", "hm-allreduce"},
	}
	var out []*Table
	for _, o := range ops {
		algo, err := expert.Build(o.name, 2, 8)
		if err != nil {
			return nil, err
		}
		series, err := bandwidth(opts, tp, algo, bufs)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:     "fig11",
			Title:  fmt.Sprintf("V100 cluster — %s", o.label),
			Header: []string{"Buffer", "NCCL (GB/s)", "MSCCL (GB/s)", "ResCCL (GB/s)", "vs NCCL", "vs MSCCL"},
		}
		for i, buf := range bufs {
			t.AddRow(mbLabel(buf),
				gb(series["NCCL"][i]), gb(series["MSCCL"][i]), gb(series["ResCCL"][i]),
				fmt.Sprintf("%.2fx", series["ResCCL"][i]/series["NCCL"][i]),
				fmt.Sprintf("%.2fx", series["ResCCL"][i]/series["MSCCL"][i]))
		}
		out = append(out, t)
	}
	return out, nil
}
