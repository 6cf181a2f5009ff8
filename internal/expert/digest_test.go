package expert

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/ir"
)

var update = flag.Bool("update", false, "rewrite testdata/builders.golden")

// digest hashes every field of a, transfers in input order and nil
// distinguished from empty: plans.golden hashes compiled plans of
// Sorted() transfers, while backend.Content, the plan-cache key, also
// reads input order and NChannels.
func digest(a *ir.Algorithm) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%q op=%d ranks=%d chunks=%d channels=%d warps=%d\n",
		a.Name, a.Op, a.NRanks, a.NChunks, a.NChannels, a.NWarps)
	fmt.Fprintf(&b, "stages nil=%t %v\n", a.StageBounds == nil, a.StageBounds)
	fmt.Fprintf(&b, "group nil=%t %v\n", a.Group == nil, a.Group)
	fmt.Fprintf(&b, "initial nil=%t %v\n", a.Initial == nil, a.Initial)
	for _, t := range a.Transfers {
		fmt.Fprintf(&b, "%d %d %d %d %d\n", t.Src, t.Dst, t.Step, t.Chunk, t.Type)
	}
	return fmt.Sprintf("%d %x", len(a.Transfers), sha256.Sum256([]byte(b.String())))
}

// TestBuilderDigestGolden pins every field of every registry builder's
// algorithm, and of the channelized rings, on the shapes the plan
// goldens and benchmarks use. A refactor of a builder must leave this
// file byte-identical.
func TestBuilderDigestGolden(t *testing.T) {
	var out bytes.Buffer
	line := func(label string, a *ir.Algorithm, err error) {
		if err != nil {
			fmt.Fprintf(&out, "%s refused\n", label)
			return
		}
		fmt.Fprintf(&out, "%s %s\n", label, digest(a))
	}
	shapes := [][2]int{{1, 3}, {1, 4}, {1, 8}, {2, 4}, {2, 8}, {3, 8}, {4, 4}, {4, 8}}
	for _, b := range Registry() {
		for _, sh := range shapes {
			a, err := BuildOn(b.Name, sh[0], sh[1])
			line(fmt.Sprintf("%s %dx%d", b.Name, sh[0], sh[1]), a, err)
		}
	}
	channelized := []struct {
		name  string
		build func(int, int, Rings) (*ir.Algorithm, error)
	}{
		{"channelized-ring-allgather", ChannelizedRingAllGather},
		{"channelized-ring-reducescatter", ChannelizedRingReduceScatter},
		{"channelized-ring-allreduce", ChannelizedRingAllReduce},
		{"channelized-ring-broadcast", ChannelizedRingBroadcast},
	}
	permuted := Rings{{0, 2, 4, 6, 1, 3, 5, 7}, {7, 6, 5, 4, 3, 2, 1, 0}}
	for _, c := range channelized {
		for _, n := range []int{8, 16, 24, 32} {
			for _, ch := range []int{1, 4} {
				a, err := c.build(n, ch, nil)
				line(fmt.Sprintf("%s n=%d ch=%d", c.name, n, ch), a, err)
			}
		}
		a, err := c.build(8, 2, permuted)
		line(fmt.Sprintf("%s n=8 ch=2 permuted", c.name), a, err)
	}

	path := filepath.Join("testdata", "builders.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/expert -run TestBuilderDigestGolden -update)", err)
	}
	got := strings.Split(out.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Errorf("builders.golden line %d:\n  want %s\n  got  %s", i+1, w, g)
		}
	}
	if len(got) > len(strings.Split(string(want), "\n")) {
		t.Errorf("builders.golden: %d lines, output has %d", len(strings.Split(string(want), "\n")), len(got))
	}
}
