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
		row := make([]byte, width)
		for i := range row {
			at := total * (float64(i) + 0.5) / float64(width)
			switch {
			case at > stats.Release:
				row[i] = ' ' // early-released: SM returned to compute
			case busyAt(stats.Segments, at):
				row[i] = 0 // placeholder for multi-byte rune below
			default:
				row[i] = '.'
			}
		}
		label := tbLabel(tb)
		if len(label) > labelW {
			label = label[:labelW]
		}
		fmt.Fprintf(&b, "%-*s |", labelW, label)
		for _, c := range row {
			if c == 0 {
				b.WriteRune('█')
			} else if c == '.' {
				b.WriteRune('·')
			} else {
				b.WriteByte(c)
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

// busyAt reports whether time t falls in a busy segment (segments are
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
