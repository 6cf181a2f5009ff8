package backend

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

// compileJob is one request of the concurrency corpus.
type compileJob struct {
	name string
	req  Request
}

// compileCorpus is every registered algorithm on a 2×8 A100 fabric, the
// 512-rank compile-scale job, and two requests the compile rejects (a
// postcondition failure and a rank-count mismatch).
func compileCorpus(t *testing.T) []compileJob {
	t.Helper()
	tp := topo.New(2, 8, topo.A100())
	var jobs []compileJob
	for _, b := range expert.Registry() {
		params := []int{16}
		if b.NParams == 2 {
			params = []int{2, 8}
		}
		algo, err := b.Build(params...)
		if err != nil {
			continue // the builder does not support the shape
		}
		jobs = append(jobs, compileJob{b.Name, Request{Algo: algo, Topo: tp}})
	}
	scale, err := synth.HierAllReduce(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	broken := &ir.Algorithm{
		Name: "broken", Op: ir.OpAllGather, NRanks: 16, NChunks: 16,
		Transfers: []ir.Transfer{{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv}},
	}
	small, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return append(jobs,
		compileJob{"hier-allreduce-512", Request{Algo: scale, Topo: topo.NewRail(64, 8, topo.A100(), 2)}},
		compileJob{"postcondition", Request{Algo: broken, Topo: tp}},
		compileJob{"rank-mismatch", Request{Algo: small, Topo: tp}},
	)
}

// compileDigest is everything a compile hands its caller, reduced to
// bytes: the saved kernel's SHA-256, the vet report and the error.
func compileDigest(job compileJob) string {
	p, err := NewResCCL().Compile(context.Background(), job.req)
	if err != nil {
		return "error: " + err.Error()
	}
	var buf bytes.Buffer
	if err := kernel.Save(p.Kernel, job.req.Topo, &buf); err != nil {
		return "save: " + err.Error()
	}
	return fmt.Sprintf("kernel %x\nvet %s", sha256.Sum256(buf.Bytes()), p.Vet)
}

// TestConcurrentCompilesMatchSerial compiles the corpus serially, then
// from eight goroutines at once, and requires every goroutine to see the
// serial kernels, vet reports and errors byte for byte: the compile's
// internal overlaps share no mutable state with each other or with
// other compiles.
func TestConcurrentCompilesMatchSerial(t *testing.T) {
	jobs := compileCorpus(t)
	want := make([]string, len(jobs))
	for i, job := range jobs {
		want[i] = compileDigest(job)
	}
	if n := len(want); !strings.HasPrefix(want[n-2], "error: core: algorithm") || !strings.HasPrefix(want[n-1], "error: core: dependency analysis") {
		t.Fatalf("the rejected requests compiled:\n%s\n%s", want[n-2], want[n-1])
	}
	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]string, len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at a different job, so different
			// compiles overlap.
			for k := range jobs {
				i := (k + w) % len(jobs)
				got[w][i] = compileDigest(jobs[i])
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, job := range jobs {
			if got[w][i] != want[i] {
				t.Errorf("worker %d, %s:\n got %s\nwant %s", w, job.name, got[w][i], want[i])
			}
		}
	}
}
