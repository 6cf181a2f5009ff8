package simcost

import (
	"math"
	"math/rand"
	"testing"
)

// TestPlanForMatchesProductFormula checks PlanFor's micro-batch count
// against ⌈S/(chunk·NChunks)⌉ computed from the product wherever the
// product cannot overflow.
func TestPlanForMatchesProductFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		s := rng.Int63n(1<<40) + 1
		c := rng.Int63n(1<<24) + 1
		k := rng.Intn(64) + 1
		perMB := c * int64(k)
		want := (s + perMB - 1) / perMB
		if got := PlanFor(s, c, k).NMicroBatches; int64(got) != want {
			t.Fatalf("PlanFor(%d, %d, %d) = %d micro-batches, want %d", s, c, k, got, want)
		}
	}
}

// TestPlanForNearMaxInt64 covers sizes whose rounding sum or
// chunk·NChunks product overflows int64.
func TestPlanForNearMaxInt64(t *testing.T) {
	cases := []struct {
		s, c int64
		k    int
		want int
	}{
		{math.MaxInt64, 1 << 20, 1, 1 << 43},
		{math.MaxInt64, math.MaxInt64, 4, 1},
		{1 << 40, 1 << 62, 4, 1},
		{math.MaxInt64 - 1, 1 << 62, 2, 1},
	}
	for _, tc := range cases {
		p := PlanFor(tc.s, tc.c, tc.k)
		if p.NMicroBatches != tc.want || p.ChunkBytes <= 0 {
			t.Errorf("PlanFor(%d, %d, %d) = %+v, want %d micro-batches", tc.s, tc.c, tc.k, p, tc.want)
		}
	}
}
