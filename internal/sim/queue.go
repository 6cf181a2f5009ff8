package sim

import "math"

// event is one scheduled simulator event. next chains it inside its
// bucket (or the free list) of the queue's slab.
type event struct {
	time    float64
	kind    int32
	task    gid
	version int32 // guards stale data-done events after rate changes
	next    int32
}

// eventQueue pops events in (time, push order): earliest time first,
// and events of one time in the order they were pushed.
//
// Events cluster on few distinct timestamps (symmetric plans finish
// whole waves of transfers at the same instant), so the queue keeps one
// FIFO bucket per timestamp and a small min-heap orders the buckets by
// (time, opening order). Pushing joins the newest bucket of the event's
// time, found through a direct-mapped cache keyed by the time's bits, or
// opens a new bucket when the cache slot holds another time or a
// drained bucket; popping takes the head of the top bucket and sifts the
// heap only when a bucket opens or drains.
//
// The order is exact: a push of time t always lands in t's newest
// bucket (a cache hit is, by construction, the newest; a miss opens a
// newer one), so every event of an older bucket of t precedes every
// event of a newer one, and buckets of one time pop in opening order.
// Slot collisions, drained and reused buckets, and pushes at the current
// time while its bucket drains only ever open extra buckets, never
// reorder events.
type eventQueue struct {
	// slab holds the events; free heads the list of unused slab
	// entries, chained through next (-1 ends every chain).
	slab []event
	free int32
	// buckets holds the timestamp buckets; a drained bucket has head -1
	// and its index waits in spare until reused.
	buckets []bucket
	spare   []int32
	// heap is a min-heap of live bucket indices by (time, seq).
	heap []int32
	// opened counts buckets opened since reset: the next bucket's seq.
	opened int
	// cache maps a time's slot to the newest bucket opened for a time
	// in that slot, or -1.
	cache [queueSlots]int32
}

// bucket is the FIFO of events sharing one timestamp.
type bucket struct {
	time       float64
	seq        int
	head, tail int32
}

const queueSlots = 64

// reset empties the queue, keeping its memory.
func (q *eventQueue) reset() {
	q.slab, q.free = q.slab[:0], -1
	q.buckets, q.spare, q.heap = q.buckets[:0], q.spare[:0], q.heap[:0]
	q.opened = 0
	for i := range q.cache {
		q.cache[i] = -1
	}
}

// empty reports whether no event is queued.
func (q *eventQueue) empty() bool { return len(q.heap) == 0 }

// peekTime returns the time of the next event; the queue must not be
// empty.
func (q *eventQueue) peekTime() float64 { return q.buckets[q.heap[0]].time }

// slotOf returns the cache slot of time t (Fibonacci hashing of its
// bits). Both zeros share a slot, as they compare equal.
func slotOf(t float64) int {
	if t == 0 {
		t = 0
	}
	return int(math.Float64bits(t) * 0x9E3779B97F4A7C15 >> 58)
}

func (q *eventQueue) push(e event) {
	i := q.free
	if i >= 0 {
		q.free = q.slab[i].next
		q.slab[i] = e
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, e)
	}
	q.slab[i].next = -1
	slot := slotOf(e.time)
	if b := q.cache[slot]; b >= 0 && q.buckets[b].head >= 0 && q.buckets[b].time == e.time {
		q.slab[q.buckets[b].tail].next = i
		q.buckets[b].tail = i
		return
	}
	q.cache[slot] = q.open(e.time, i)
}

// open starts a bucket of time t holding event i and adds it to the heap.
func (q *eventQueue) open(t float64, i int32) int32 {
	var b int32
	if n := len(q.spare); n > 0 {
		b = q.spare[n-1]
		q.spare = q.spare[:n-1]
	} else {
		b = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{})
	}
	q.buckets[b] = bucket{time: t, seq: q.opened, head: i, tail: i}
	q.opened++
	q.heap = append(q.heap, b)
	for j := len(q.heap) - 1; j > 0; {
		parent := (j - 1) / 2
		if !q.less(q.heap[j], q.heap[parent]) {
			break
		}
		q.heap[j], q.heap[parent] = q.heap[parent], q.heap[j]
		j = parent
	}
	return b
}

func (q *eventQueue) less(a, b int32) bool {
	x, y := &q.buckets[a], &q.buckets[b]
	if x.time != y.time {
		return x.time < y.time
	}
	return x.seq < y.seq
}

// pop removes and returns the next event; the queue must not be empty.
func (q *eventQueue) pop() event {
	b := q.heap[0]
	bk := &q.buckets[b]
	i := bk.head
	e := q.slab[i]
	bk.head = e.next
	q.slab[i].next = q.free
	q.free = i
	if bk.head < 0 {
		q.drop()
		q.spare = append(q.spare, b)
	}
	return e
}

// drop removes the top bucket from the heap.
func (q *eventQueue) drop() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(q.heap[l], q.heap[smallest]) {
			smallest = l
		}
		if r < n && q.less(q.heap[r], q.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
