package trace

import (
	"fmt"
	"math"
	"sort"

	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

// BuildTimeline converts a simulation result into an observability
// timeline: one track per kernel thread block (including TBs that never
// fired), one track per communication link that carried traffic, and a
// fault lane when faults were injected. The result must come from a run
// configured with RecordTimeline; BuildTimeline returns nil when no
// instance records are present, so callers can gate export on it.
//
// Track contents inherit the simulator's determinism: instance records
// arrive in completion order and links are sorted by resource ID, so the
// same inputs always build byte-identical timelines.
func BuildTimeline(name string, k *kernel.Kernel, tp *topo.Topology, res *sim.Result) *obs.Timeline {
	if res == nil || len(res.Timeline) == 0 {
		return nil
	}
	tl := &obs.Timeline{Name: name, Completion: res.Completion}

	// Thread-block tracks, ascending kernel-local ID. Index by ID so
	// instance records append in O(1).
	tl.TBs = make([]obs.TBTrack, len(k.TBs))
	for i, tb := range k.TBs {
		tl.TBs[i] = obs.TBTrack{ID: tb.ID, Rank: int(tb.Rank), Label: tb.Label}
	}

	linkSlices := make(map[topo.LinkID][]obs.Slice)
	for _, span := range res.Timeline {
		slice := obs.Slice{
			Name:  fmt.Sprintf("t%d mb%d %d→%d", span.Task, span.MB, span.Src, span.Dst),
			Start: span.Start,
			End:   span.End,
		}
		if span.SendTB >= 0 && span.SendTB < len(tl.TBs) {
			tl.TBs[span.SendTB].Slices = append(tl.TBs[span.SendTB].Slices, slice)
		}
		if span.RecvTB >= 0 && span.RecvTB < len(tl.TBs) && span.RecvTB != span.SendTB {
			tl.TBs[span.RecvTB].Slices = append(tl.TBs[span.RecvTB].Slices, slice)
		}
		for _, l := range span.Links {
			linkSlices[l] = append(linkSlices[l], slice)
		}
	}

	links := make([]topo.LinkID, 0, len(linkSlices))
	for l := range linkSlices {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		tl.Links = append(tl.Links, obs.LinkTrack{Name: tp.DescribeResource(l), Slices: linkSlices[l]})
	}

	for _, f := range res.Faults {
		// A permanent failure's window never closes; it is drawn to the
		// end of the run.
		end := f.End
		if end <= f.Time || math.IsInf(end, 1) {
			end = res.Completion
		}
		tl.Faults = append(tl.Faults, obs.FaultWindow{Kind: f.Kind, Detail: f.Detail, Start: f.Time, End: end})
	}
	return tl
}

// LinkBusyGauges publishes a result's per-link busy time (its LinkBusy)
// into the metrics registry as "link.busy_seconds.<desc>" gauges, one
// per link that carried traffic, accumulating across runs. Nil-safe on
// both arguments.
func LinkBusyGauges(m *obs.Metrics, tp *topo.Topology, busy []float64) {
	if m == nil || tp == nil {
		return
	}
	for l, sec := range busy {
		if sec > 0 {
			m.AddGauge("link.busy_seconds."+tp.DescribeResource(topo.LinkID(l)), sec)
		}
	}
}
