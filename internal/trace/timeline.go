package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sim"
)

// RenderTimeline draws an ASCII Gantt chart of per-TB activity for a
// simulation run of k executed with RecordTimeline: one row per thread
// block ('█' transferring, '·' occupying an SM idle, ' ' released), with
// a time axis in milliseconds. Rows are grouped by rank. maxRanks > 0
// limits output to the first maxRanks ranks.
func RenderTimeline(k *kernel.Kernel, res *sim.Result, width, maxRanks int) string {
	if width < 20 {
		width = 80
	}
	total := res.Completion
	if total <= 0 {
		return "(empty timeline)\n"
	}
	// res.TBs[i] is the run of k.TBs[i]; rows go by rank, then ID.
	tbs := slices.Clone(k.TBs)
	slices.SortFunc(tbs, func(a, b *kernel.TBProgram) int {
		return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.ID, b.ID))
	})

	labelW := 0
	for _, tb := range tbs {
		if l := len(tbLabel(tb)); l > labelW {
			labelW = l
		}
	}
	if labelW > 34 {
		labelW = 34
	}

	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %.3f ms total, %d TBs ('█' transferring, '·' idle on SM, ' ' released)\n",
		total*1e3, len(tbs))
	// Fault lane: mark columns where any injected fault window is active,
	// then list the windows. Fault-free runs render exactly as before.
	if len(res.Faults) > 0 {
		var row strings.Builder
		for i := 0; i < width; i++ {
			at := total * (float64(i) + 0.5) / float64(width)
			mark := byte(' ')
			for _, f := range res.Faults {
				if f.Time <= at && at < f.End {
					mark = 'x'
					break
				}
			}
			row.WriteByte(mark)
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", labelW, "faults", row.String())
		for _, f := range res.Faults {
			fmt.Fprintf(&b, "%*s  %s\n", labelW, "", f.Detail)
		}
	}
	busy := busyIntervals(len(k.TBs), res.Timeline)
	lastRank := -1
	shownRanks := 0
	for _, tb := range tbs {
		stats := &res.TBs[tb.ID]
		if int(tb.Rank) != lastRank {
			lastRank = int(tb.Rank)
			shownRanks++
			if maxRanks > 0 && shownRanks > maxRanks {
				fmt.Fprintf(&b, "%*s … (%d more ranks)\n", labelW, "", countRanks(tbs)-maxRanks)
				break
			}
			fmt.Fprintf(&b, "-- rank %d --\n", lastRank)
		}
		label := tbLabel(tb)
		if len(label) > labelW {
			label = label[:labelW]
		}
		fmt.Fprintf(&b, "%-*s |", labelW, label)
		for i := 0; i < width; i++ {
			at := total * (float64(i) + 0.5) / float64(width)
			switch {
			case at > stats.Release:
				b.WriteByte(' ') // early-released: SM returned to compute
			case busyAt(busy[tb.ID], at):
				b.WriteRune('█')
			default:
				b.WriteRune('·')
			}
		}
		b.WriteString("|\n")
	}
	// Time axis.
	fmt.Fprintf(&b, "%-*s |%-*s%8.3fms|\n", labelW, "", width-10, "0", total*1e3)
	return b.String()
}

func tbLabel(tb *kernel.TBProgram) string {
	return fmt.Sprintf("TB%-3d %s", tb.ID, tb.Label)
}

func countRanks(tbs []*kernel.TBProgram) int {
	seen := map[int]bool{}
	for _, tb := range tbs {
		seen[int(tb.Rank)] = true
	}
	return len(seen)
}

// busyIntervals returns each of the first n TBs' busy intervals
// [start, end]: the spans it sent or received, in completion order,
// each merged into the one before when it starts as that one ends.
// Spans of TBs past n, a repair epoch's, are left out.
func busyIntervals(n int, spans []sim.InstanceSpan) [][][2]float64 {
	busy := make([][][2]float64, n)
	for _, sp := range spans {
		for _, id := range [2]int{sp.SendTB, sp.RecvTB} {
			if id >= n {
				continue
			}
			if segs := busy[id]; len(segs) > 0 && segs[len(segs)-1][1] >= sp.Start-1e-12 {
				segs[len(segs)-1][1] = sp.End
			} else {
				busy[id] = append(segs, [2]float64{sp.Start, sp.End})
			}
		}
	}
	return busy
}

// busyAt reports whether time t falls in a busy interval (intervals are
// sorted by construction).
func busyAt(segs [][2]float64, t float64) bool {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid][1] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(segs) && segs[lo][0] <= t && t <= segs[lo][1]
}
