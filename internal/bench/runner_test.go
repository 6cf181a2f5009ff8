package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/backend"
)

// renderCSV renders an experiment's tables the way the CLI does, with
// measured wall-clock cells masked: any cell that parses as a
// time.Duration (Figure 10a's phase timings) or sits in a column whose
// header carries the "(wall" marker (the faulted replan table's recovery
// columns) is non-deterministic between runs even serially, so it cannot
// participate in the byte-equality check. Everything else — every
// simulated quantity — must match exactly.
func renderCSV(tables []*Table) string {
	var sb strings.Builder
	for _, t := range tables {
		masked := &Table{ID: t.ID, Title: t.Title, Header: t.Header, Notes: t.Notes}
		wall := make([]bool, len(t.Header))
		for i, h := range t.Header {
			wall[i] = strings.Contains(h, "(wall")
		}
		for _, row := range t.Rows {
			out := make([]string, len(row))
			for i, c := range row {
				_, err := time.ParseDuration(c)
				if err == nil || (i < len(wall) && wall[i]) {
					out[i] = "<wall-clock>"
				} else {
					out[i] = c
				}
			}
			masked.Rows = append(masked.Rows, out)
		}
		masked.FprintCSV(&sb)
	}
	return sb.String()
}

// TestSerialParallelDeterminism is the tentpole's core guarantee: for
// every registry experiment, a parallel run renders byte-identical
// output to a serial run. Workers is forced above one so the pool path
// is exercised even on a single-core host.
func TestSerialParallelDeterminism(t *testing.T) {
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
			serialTabs, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			parTabs, err := e.Run(Options{Quick: true, Parallel: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			serial, par := renderCSV(serialTabs), renderCSV(parTabs)
			if serial != par {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
		})
	}
}

// A shared cache must be reused across experiments: running the same
// experiment twice against one cache compiles nothing the second time.
func TestSharedCacheAcrossRuns(t *testing.T) {
	cache := backend.NewCache()
	opts := Options{Quick: true, Cache: cache}
	if _, err := Figure10b(opts); err != nil {
		t.Fatal(err)
	}
	first := cache.Stats()
	if first.Misses == 0 {
		t.Fatal("first run should populate the cache")
	}
	if _, err := Figure10b(opts); err != nil {
		t.Fatal(err)
	}
	second := cache.Stats()
	if second.Misses != first.Misses {
		t.Errorf("second run recompiled: misses %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Error("second run should be served from the cache")
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickTablesGolden pins every registry experiment's Quick tables,
// wall-clock cells masked, to testdata/quick_tables.golden. Regenerate
// with
//
//	go test ./internal/bench -run TestQuickTablesGolden -update
func TestQuickTablesGolden(t *testing.T) {
	var sb strings.Builder
	for _, e := range Registry() {
		tables, err := e.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sb.WriteString(renderCSV(tables))
	}
	got := []byte(sb.String())
	golden := filepath.Join("testdata", "quick_tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quick tables drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
