package bench

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/lang"
)

// Every experiment must run to completion in Quick mode and produce
// non-empty tables. The heavy ones are skipped under -short.
func TestAllExperimentsQuick(t *testing.T) {
	heavy := map[string]bool{
		"table1": true, "fig3": true, "fig6": true, "fig7": true,
		"fig8": true, "fig9": true, "fig11": true, "fig13": true,
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && heavy[e.ID] {
				t.Skip("heavy experiment skipped in -short mode")
			}
			tables, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Errorf("table %q: row width %d != header %d", tab.Title, len(row), len(tab.Header))
					}
				}
				var sb strings.Builder
				tab.Fprint(&sb)
				if !strings.Contains(sb.String(), tab.Title) {
					t.Error("Fprint must include the title")
				}
			}
		})
	}
}

func TestFindUnknown(t *testing.T) {
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment must fail")
	}
	e, err := Find("fig4")
	if err != nil || e.ID != "fig4" {
		t.Errorf("Find(fig4) = %v, %v", e.ID, err)
	}
}

// Fig. 4's qualitative shape: bandwidth rises to the 4-TB peak and is
// strictly lower at high TB counts than at the peak.
func TestFigure4Shape(t *testing.T) {
	tables, err := Figure4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	bw := map[int]float64{}
	for _, r := range rows {
		k, _ := strconv.Atoi(r[0])
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		bw[k] = v
	}
	if !(bw[1] < bw[2] && bw[2] < bw[4]) {
		t.Errorf("bandwidth should rise up to 4 TBs: %v", bw)
	}
	if !(bw[16] < bw[4]) {
		t.Errorf("bandwidth at 16 TBs (%f) should fall below the 4-TB peak (%f)", bw[16], bw[4])
	}
}

// Fig. 10(b): HPDS must beat round-robin on at least one algorithm and
// never lose by more than a rounding margin.
func TestFigure10bHPDSWins(t *testing.T) {
	tables, err := Figure10b(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	won := false
	for _, row := range tables[0].Rows {
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if sp > 1.02 {
			won = true
		}
		if sp < 0.95 {
			t.Errorf("%s: HPDS slower than RR (%.2fx)", row[0], sp)
		}
	}
	if !won {
		t.Error("HPDS should beat RR on at least one algorithm")
	}
}

func TestBufSweepQuick(t *testing.T) {
	full := []int64{8 << 20, 64 << 20, 512 << 20, 2 << 30, 4 << 30}
	q := bufSweep(Options{Quick: true}, full)
	if len(q) != 3 {
		t.Fatalf("quick sweep has %d points, want 3", len(q))
	}
	if q[len(q)-1] > 512<<20 {
		t.Errorf("quick sweep should cap at 512MB, got %d", q[len(q)-1])
	}
	if got := bufSweep(Options{}, full); len(got) != len(full) {
		t.Error("full sweep must be unchanged")
	}
}

func TestLabels(t *testing.T) {
	if mbLabel(4<<30) != "4GB" || mbLabel(64<<20) != "64MB" || mbLabel(256<<10) != "256KB" {
		t.Error("mbLabel formatting wrong")
	}
	if pct(0.318) != "31.8%" {
		t.Errorf("pct(0.318) = %s", pct(0.318))
	}
	if gb(25e9) != "25.0" {
		t.Errorf("gb(25e9) = %s", gb(25e9))
	}
}

func TestTableFormats(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	var csvOut, mdOut strings.Builder
	tab.FprintCSV(&csvOut)
	if !strings.Contains(csvOut.String(), "x,T,1,2") {
		t.Errorf("csv output wrong:\n%s", csvOut.String())
	}
	tab.FprintMarkdown(&mdOut)
	if !strings.Contains(mdOut.String(), "| 1 | 2 |") || !strings.Contains(mdOut.String(), "### x") {
		t.Errorf("markdown output wrong:\n%s", mdOut.String())
	}
}

// Fig. 10a compiles its own rendering of the Fig. 16 program; at every
// shape it must be the registry's HM AllReduce, transfer for transfer.
func TestFigure10aSourceMatchesBuilder(t *testing.T) {
	for _, sh := range [][2]int{{2, 4}, {2, 8}, {3, 8}, {4, 8}} {
		got, err := lang.Compile(hmARSource(sh[0], sh[1]))
		if err != nil {
			t.Fatalf("%dx%d: %v", sh[0], sh[1], err)
		}
		want, err := expert.HMAllReduce(sh[0], sh[1])
		if err != nil {
			t.Fatalf("%dx%d: %v", sh[0], sh[1], err)
		}
		if got.Op != want.Op || got.NRanks != want.NRanks {
			t.Errorf("%dx%d: the program is a %d-rank %v, the builder a %d-rank %v", sh[0], sh[1], got.NRanks, got.Op, want.NRanks, want.Op)
			continue
		}
		if !slices.Equal(got.Sorted(), want.Sorted()) {
			t.Errorf("%dx%d: the program's %d transfers differ from the builder's %d", sh[0], sh[1], len(got.Transfers), len(want.Transfers))
		}
	}
}
