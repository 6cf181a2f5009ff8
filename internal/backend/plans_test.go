package backend

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

// planCase is one compiled plan of the saved-plan golden.
type planCase struct {
	name string
	req  Request
	b    Backend
}

// planCorpus is every registry algorithm that builds on 1×8, 2×8 and
// 4×4 A100 under each of the three backends, plus the 512-rank rail
// hier-allreduce compile-scale plan under ResCCL.
func planCorpus(t testing.TB) []planCase {
	t.Helper()
	var cases []planCase
	for _, shape := range [][2]int{{1, 8}, {2, 8}, {4, 4}} {
		tp := topo.New(shape[0], shape[1], topo.A100())
		for _, b := range expert.Registry() {
			params := []int{tp.NRanks()}
			if b.NParams == 2 {
				params = []int{shape[0], shape[1]}
			}
			algo, err := b.Build(params...)
			if err != nil {
				continue // the builder refuses this shape
			}
			for _, be := range []Backend{NewResCCL(), NewNCCL(), NewMSCCL()} {
				name := fmt.Sprintf("%s %dx%d %s", b.Name, shape[0], shape[1], be.Name())
				cases = append(cases, planCase{name, Request{Algo: algo, Topo: tp}, be})
			}
		}
	}
	scale, err := synth.HierAllReduce(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, planCase{"hier-allreduce 64x8-rail ResCCL",
		Request{Algo: scale, Topo: topo.NewRail(64, 8, topo.A100(), 2)}, NewResCCL()})
}

// TestSavedPlansGolden pins the kernel.Save bytes of every plan in
// planCorpus by SHA-256, one line per plan, so a change to the plan's
// in-memory layout that alters any emitted TB, slot, table or link
// predecessor fails here. Run with -update to regenerate after an
// intentional change to compilation.
func TestSavedPlansGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range planCorpus(t) {
		p, err := c.b.Compile(context.Background(), c.req)
		if err != nil {
			fmt.Fprintf(&out, "%s error: %v\n", c.name, err)
			continue
		}
		var buf bytes.Buffer
		if err := kernel.Save(p.Kernel, c.req.Topo, &buf); err != nil {
			t.Fatalf("%s: save: %v", c.name, err)
		}
		fmt.Fprintf(&out, "%s %x\n", c.name, sha256.Sum256(buf.Bytes()))
	}
	path := filepath.Join("testdata", "plans.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/backend -run TestSavedPlansGolden -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("saved plans differ from golden file %s:\n%s", path, lineDiff(string(want), out.String()))
	}
}

// TestSavedPlanRoundTrip loads saved rail, clos and LL-tier plans back:
// the file keeps the fabric tier and the protocol tier, so re-saving the
// loaded plan gives the same bytes, and it simulates to exactly the
// compiled plan's completion.
func TestSavedPlanRoundTrip(t *testing.T) {
	build := func(name string, nNodes, gpn int) *ir.Algorithm {
		algo, err := expert.BuildOn(name, nNodes, gpn)
		if err != nil {
			t.Fatal(err)
		}
		return algo
	}
	for _, c := range []planCase{
		{"hm-allreduce 8x8-rail/2", Request{Algo: build("hm-allreduce", 8, 8), Topo: topo.NewRail(8, 8, topo.A100(), 2)}, NewResCCL()},
		{"hm-allgather 4x4-clos/2", Request{Algo: build("hm-allgather", 4, 4), Topo: topo.NewClos(4, 4, topo.A100(), 2)}, NewMSCCL()},
		{"hm-allreduce 2x8 LL", Request{Algo: build("hm-allreduce", 2, 8), Topo: topo.New(2, 8, topo.A100()), Protocol: ir.ProtoLL}, NewResCCL()},
	} {
		p, err := c.b.Compile(context.Background(), c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var saved, resaved bytes.Buffer
		if err := kernel.Save(p.Kernel, c.req.Topo, &saved); err != nil {
			t.Fatalf("%s: save: %v", c.name, err)
		}
		k, tp, err := kernel.Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", c.name, err)
		}
		if err := kernel.Save(k, tp, &resaved); err != nil {
			t.Fatalf("%s: re-save: %v", c.name, err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Errorf("%s: re-saving the loaded plan changed its bytes", c.name)
		}
		if tp.String() != c.req.Topo.String() || k.Protocol != p.Kernel.Protocol {
			t.Errorf("%s: loaded %s under %v, compiled %s under %v", c.name, tp, k.Protocol, c.req.Topo, p.Kernel.Protocol)
		}
		compiled, err := sim.Run(sim.Config{Topo: c.req.Topo, Kernel: p.Kernel, BufferBytes: 64 << 20, ChunkBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := sim.Run(sim.Config{Topo: tp, Kernel: k, BufferBytes: 64 << 20, ChunkBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Completion != compiled.Completion {
			t.Errorf("%s: loaded plan completes in %.6f ms, compiled plan in %.6f ms",
				c.name, loaded.Completion*1e3, compiled.Completion*1e3)
		}
	}
}

// lineDiff lists the lines of got that are not at the same position in
// want, for a readable golden failure.
func lineDiff(want, got string) string {
	w, g := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	var b bytes.Buffer
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
