package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.json {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range c.defs {
			want = append(want, m.name+" "+m.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program prints %v", c.what, got, want)
		}
	}
}

// TestOperationsSeedInvariant checks that the seed changes only the
// order of operations: two seeds draw the same multiset of sizes, job
// shapes and request keys.
func TestOperationsSeedInvariant(t *testing.T) {
	multiset := func(seed int64) (train, serve []string) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			for _, o := range trainOrder(rng, trainStep()) {
				train = append(train, o.String())
			}
		}
		for _, a := range serveSchedule(seed, 20*time.Second) {
			serve = append(serve, a.key.String())
		}
		sort.Strings(train)
		sort.Strings(serve)
		return train, serve
	}
	t1, s1 := multiset(1)
	t2, s2 := multiset(2)
	if !reflect.DeepEqual(t1, t2) {
		t.Error("train-step: seeds 1 and 2 draw different operations")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("serve-mixed: seeds 1 and 2 draw different request keys")
	}
	if len(s1) != 20*serveRate {
		t.Errorf("serve-mixed: %d requests in 20s, want %d", len(s1), 20*serveRate)
	}
	distinct := map[planKey]bool{}
	for _, a := range serveSchedule(1, 20*time.Second) {
		distinct[a.key.plan] = true
	}
	if len(distinct) <= serveCacheEntries {
		t.Errorf("serve-mixed: %d distinct plans fit the %d-entry cache", len(distinct), serveCacheEntries)
	}
}

// TestQualitySeedInvariant runs every workload briefly with two seeds
// and checks that both report identical plan-quality metrics and no
// failed operation.
func TestQualitySeedInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	drift, err := newDriftProbe()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"train-step", "serve-mixed", "compile-scale"} {
		var got []string
		for _, seed := range []int64{1, 2} {
			out, err := workloads[name](runConfig{seed: seed, seconds: time.Second, drift: drift})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s seed %d: %d of %d operations failed", name, seed, out.failed, out.attempted)
			}
			q := ""
			for _, m := range []string{"sim_comm_ms", "gap_pct", "tbs_per_rank", "idle_ratio"} {
				q += fmt.Sprintf("%s=%v ", m, out.e2e[m])
			}
			got = append(got, q)
		}
		if got[0] != got[1] {
			t.Errorf("%s: plan quality differs between seeds:\n seed 1: %s\n seed 2: %s", name, got[0], got[1])
		}
	}
}

// BenchmarkServeCapacity measures serve-mixed's closed-loop capacity,
// from which serveRate is set: serveWorkers connections each send the
// next request of a 30 s run's multiset as soon as their last one has
// returned. Run it from perfbench/:
//
//	go test -run '^$' -bench ServeCapacity -benchtime 3x
func BenchmarkServeCapacity(b *testing.B) {
	arrivals := serveSchedule(1, 30*time.Second)
	s, err := serveSetup(len(arrivals))()
	if err != nil {
		b.Fatal(err)
	}
	defer s.close()
	var failed atomic.Int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < serveWorkers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(arrivals); i = int(next.Add(1)) - 1 {
					status, _, err := s.send(arrivals[i].key, arrivals[i].tenant, -1)
					if err != nil || status != http.StatusOK {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if f := failed.Load(); f > 0 {
		b.Fatalf("%d requests failed", f)
	}
	b.ReportMetric(float64(b.N*len(arrivals))/b.Elapsed().Seconds(), "req/s")
}
