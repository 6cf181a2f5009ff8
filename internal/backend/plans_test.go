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
	"github.com/resccl/resccl/internal/kernel"
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
