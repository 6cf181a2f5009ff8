package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// collidingTimes returns n distinct times after base that share base's
// cache slot, found by scanning.
func collidingTimes(base float64, n int) []float64 {
	var out []float64
	for k := 1; len(out) < n; k++ {
		if t := base + float64(k)*1e-7; slotOf(t) == slotOf(base) {
			out = append(out, t)
		}
	}
	return out
}

// TestQueueMatchesStableSort drives random push/pop interleavings
// through one queue and checks every pop against a stable sort of the
// pending events on (time, push order). The times repeat heavily,
// several share one cache slot, the simulator's own pattern of pushing
// at the current time while that time's bucket drains is frequent, and
// rounds reuse the queue across resets, some abandoning queued events.
func TestQueueMatchesStableSort(t *testing.T) {
	base := []float64{0, 1e-6, 2.5e-6, 3e-6}
	times := append(slices.Clone(base), collidingTimes(base[1], 3)...)
	times = append(times, collidingTimes(base[2], 2)...)
	if slotOf(times[4]) != slotOf(times[1]) || times[4] == times[1] {
		t.Fatal("colliding times do not share a slot")
	}
	if slotOf(math.Copysign(0, -1)) != slotOf(0) {
		t.Fatal("-0 and +0 compare equal but map to different slots")
	}
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var pending []event // in push order
	pops, collisions := 0, 0
	for round := 0; round < 300; round++ {
		q.reset()
		pending = pending[:0]
		id := int32(0)
		push := func(tm float64) {
			e := event{time: tm, task: id, kind: int32(rng.Intn(3)), version: -id}
			id++
			q.push(e)
			pending = append(pending, e)
		}
		// pop pops one event and checks it against the reference: the
		// first pending event of a stable sort by time.
		pop := func() event {
			got := q.pop()
			got.next = 0 // the queue's own link, not part of the event
			ref := slices.Clone(pending)
			slices.SortStableFunc(ref, func(a, b event) int { return cmp.Compare(a.time, b.time) })
			if want := ref[0]; got != want {
				t.Fatalf("round %d pop %d: got event %d at %g, want event %d at %g",
					round, pops, got.task, got.time, want.task, want.time)
			}
			pending = slices.DeleteFunc(pending, func(e event) bool { return e.task == got.task })
			pops++
			return got
		}
		nOps := 20 + rng.Intn(200)
		for op := 0; op < nOps; op++ {
			if len(pending) == 0 || rng.Intn(5) < 3 {
				push(times[rng.Intn(len(times))])
				continue
			}
			got := pop()
			// Push at the current time while its bucket drains, now and
			// then into a slot another time has taken over.
			for n := rng.Intn(3); n > 0; n-- {
				push(got.time)
			}
			if rng.Intn(4) == 0 {
				for _, c := range times {
					if c != got.time && slotOf(c) == slotOf(got.time) {
						push(c)
						push(got.time)
						collisions++
						break
					}
				}
			}
		}
		// Every fourth round abandons its queued events to the reset.
		if round%4 != 0 {
			for !q.empty() {
				pop()
			}
			if len(pending) > 0 {
				t.Fatalf("round %d: queue empty with %d events pending", round, len(pending))
			}
		}
	}
	if pops < 1000 || collisions < 100 {
		t.Fatalf("corpus too weak: %d pops, %d colliding pushes", pops, collisions)
	}
}
