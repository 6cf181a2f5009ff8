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

// timedEvent is a queued event with its time, as the reference keeps it.
type timedEvent struct {
	time float64
	event
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
	var pending []timedEvent // in push order
	pops, collisions := 0, 0
	for round := 0; round < 300; round++ {
		q.reset()
		pending = pending[:0]
		id := int32(0)
		push := func(tm float64) {
			e := timedEvent{tm, event{task: id, kind: int32(rng.Intn(3)), version: -id}}
			id++
			q.push(e.time, e.event)
			pending = append(pending, e)
		}
		// pop pops one event and checks it against the reference: the
		// first pending event of a stable sort by time.
		pop := func() timedEvent {
			var got timedEvent
			got.time, got.event = q.pop()
			ref := slices.Clone(pending)
			slices.SortStableFunc(ref, func(a, b timedEvent) int { return cmp.Compare(a.time, b.time) })
			if want := ref[0]; got != want {
				t.Fatalf("round %d pop %d: got event %d at %g, want event %d at %g",
					round, pops, got.task, got.time, want.task, want.time)
			}
			pending = slices.DeleteFunc(pending, func(e timedEvent) bool { return e.task == got.task })
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

// queueWave pushes wave events at each of the first nTimes of 16
// times, in random order, then drains the queue; popping an event of
// time t now and then pushes more at t, into the bucket that is
// draining, or at a later time. Every pop is checked against a FIFO per
// time, which is (time, push order). It returns the events popped.
func queueWave(t *testing.T, q *eventQueue, rng *rand.Rand, nTimes, wave int) int {
	t.Helper()
	times := make([]float64, 16)
	for i := range times {
		times[i] = float64(i+1) * 1.5e-6
	}
	ref := make([][]int32, len(times)) // pending ids per time, in push order
	id := int32(0)
	push := func(i int) {
		q.push(times[i], event{kind: evDataDone, task: id, version: id % 7})
		ref[i] = append(ref[i], id)
		id++
	}
	var order []int
	for i := range nTimes {
		for range wave {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, i := range order {
		push(i)
	}
	pops := 0
	for !q.empty() {
		tm, e := q.pop()
		i := 0
		for len(ref[i]) == 0 {
			i++
		}
		if want := ref[i][0]; tm != times[i] || e.task != want || e.version != want%7 {
			t.Fatalf("pop %d: got event %d at %g, want event %d at %g", pops, e.task, tm, want, times[i])
		}
		ref[i] = ref[i][1:]
		pops++
		switch r := rng.Intn(8); {
		case r < 2:
			push(i) // the bucket that is draining
		case r == 2 && i+1 < len(times):
			push(i + 1 + rng.Intn(len(times)-i-1))
		}
	}
	for i := range ref {
		if len(ref[i]) > 0 {
			t.Fatalf("queue empty with %d events pending at %g", len(ref[i]), times[i])
		}
	}
	return pops
}

// TestQueueWaves drives the simulator's wave shape through one queue:
// runs of at least 10,000 events on at most 16 times, with small runs
// between them that reuse the buckets the large ones grew. After every
// run the queue is trimmed, as a released arena is, and must keep at
// most queueKeep records per event the run had queued at its peak, or
// queueFloor records if that is more. A repeated run of one shape
// settles: it grows no run.
func TestQueueWaves(t *testing.T) {
	var q eventQueue
	shapes := [][2]int{{16, 700}, {3, 5}, {10, 1100}, {16, 2}, {1, 12000}, {16, 640}, {2, 40}}
	for round, sh := range shapes {
		q.reset()
		n := queueWave(t, &q, rand.New(rand.NewSource(int64(round))), sh[0], sh[1])
		if sh[0]*sh[1] >= 10000 && n < 10000 {
			t.Fatalf("round %d: %d events, want at least 10,000", round, n)
		}
		grown := q.kept()
		q.trim()
		t.Logf("round %d: peak %d, kept %d, trimmed to %d", round, q.peak, grown, q.kept())
		if kept := q.kept(); kept > max(queueKeep*q.peak, queueFloor) {
			t.Fatalf("round %d (%d times × %d): queue keeps %d records after a run whose peak was %d events, want ≤ %d× or %d",
				round, sh[0], sh[1], kept, q.peak, queueKeep, queueFloor)
		}
	}
	run := func() int {
		q.reset()
		queueWave(t, &q, rand.New(rand.NewSource(9)), 16, 700)
		q.trim()
		return q.kept()
	}
	// Runs only grow, and trim empties them, so an unchanged nonzero
	// capacity means the second run allocated no record.
	if first, second := run(), run(); first == 0 || second != first {
		t.Fatalf("a repeated run of one shape keeps %d records, then %d; want the same nonzero count", first, second)
	}
}
