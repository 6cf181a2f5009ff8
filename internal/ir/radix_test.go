package ir

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// keyGen draws one key value; the generators cover heavy duplication,
// negative values, wide spans and the int extremes.
var keyGens = map[string]func(*rand.Rand) int{
	"dup":     func(r *rand.Rand) int { return r.Intn(3) },
	"small":   func(r *rand.Rand) int { return r.Intn(64) - 32 },
	"dense":   func(r *rand.Rand) int { return r.Intn(5000) },
	"wide":    func(r *rand.Rand) int { return r.Intn(1<<20) - 1<<19 },
	"huge":    func(r *rand.Rand) int { return []int{0, 1 << 40, -1 << 40, 7, 1<<40 + 1}[r.Intn(5)] },
	"extreme": func(r *rand.Rand) int { return []int{math.MinInt, math.MaxInt, 0, -1, 1}[r.Intn(5)] },
	"random":  func(r *rand.Rand) int { return int(r.Uint64()) },
}

// RadixSort agrees with a stable comparison sort on every key shape,
// for one and several keys.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, gen := range keyGens {
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(300)
			if trial == 0 {
				n = 5000
			}
			nKeys := 1 + trial%3
			vals := make([][]int, nKeys)
			for k := range vals {
				vals[k] = make([]int, n)
				for i := range vals[k] {
					vals[k][i] = gen(rng)
				}
			}
			keys := make([]func(int32) int, nKeys)
			for k := range keys {
				keys[k] = func(i int32) int { return vals[k][i] }
			}
			got := make([]int32, n)
			for i := range got {
				got[i] = int32(rng.Intn(n)) // repeated indices must be kept too
			}
			want := slices.Clone(got)
			slices.SortStableFunc(want, func(a, b int32) int {
				for _, key := range keys {
					if c := cmp.Compare(key(a), key(b)); c != 0 {
						return c
					}
				}
				return 0
			})
			RadixSort(got, keys...)
			if !slices.Equal(got, want) {
				t.Fatalf("%s trial %d (n=%d, %d keys): radix order differs from stable sort", name, trial, n, nKeys)
			}
		}
	}
}

// Sorted is the stable (step, chunk, src, dst) order on any input,
// invalid ones included: repeated keys differing only in Type keep
// their input order, and negative or huge fields sort by value.
func TestSortedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	field := func(gen func(*rand.Rand) int) int {
		if rng.Intn(8) == 0 {
			return []int{-1, -7, 1 << 40, math.MinInt, math.MaxInt}[rng.Intn(5)]
		}
		return gen(rng)
	}
	for trial := 0; trial < 300; trial++ {
		gen := keyGens["dup"]
		if trial%2 == 1 {
			gen = keyGens["dense"]
		}
		a := &Algorithm{Name: "s", NRanks: 4, NChunks: 4}
		for i := rng.Intn(200); i >= 0; i-- {
			tr := Transfer{Src: Rank(field(gen)), Dst: Rank(field(gen)), Step: Step(field(gen)),
				Chunk: ChunkID(field(gen)), Type: CommType(rng.Intn(2))}
			a.Transfers = append(a.Transfers, tr)
			if rng.Intn(4) == 0 { // the same key under the other comm type
				tr.Type = 1 - tr.Type
				a.Transfers = append(a.Transfers, tr)
			}
		}
		input := slices.Clone(a.Transfers)
		want := slices.Clone(input)
		slices.SortStableFunc(want, func(x, y Transfer) int {
			return cmp.Or(cmp.Compare(x.Step, y.Step), cmp.Compare(x.Chunk, y.Chunk),
				cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst))
		})
		if got := a.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Sorted differs from the stable comparison sort", trial)
		}
		if !slices.Equal(a.Transfers, input) {
			t.Fatalf("trial %d: Sorted modified the receiver", trial)
		}
	}
}

// A step of 1<<40 is a valid ResCCLang step: sorting it must cost
// memory proportional to the transfer count, not to the key values.
func TestSortedMemoryIsBoundedByLength(t *testing.T) {
	for _, steps := range [][2]Step{{0, 1 << 40}, {math.MinInt, math.MaxInt}} {
		a := &Algorithm{Name: "far", NRanks: 2, NChunks: 1, Transfers: []Transfer{
			{Src: 0, Dst: 1, Step: steps[1]}, {Src: 1, Dst: 0, Step: steps[0]},
		}}
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if s := a.Sorted(); s[0].Step != steps[0] {
				t.Fatalf("steps %v: Sorted = %v", steps, s)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<20 {
			t.Errorf("steps %v: sorting 2 transfers allocates %d bytes, want < 1 MiB", steps, per)
		}
	}
}
