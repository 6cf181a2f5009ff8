package sim

import "math"

// event is one scheduled simulator event; its time is its bucket's.
type event struct {
	kind    int32
	task    gid
	version int32 // guards stale data-done events after rate changes
}

// eventQueue pops events in (time, push order): earliest time first,
// and events of one time in the order they were pushed.
//
// Events cluster on few distinct timestamps (symmetric plans finish
// whole waves of transfers at the same instant), so the queue keeps one
// FIFO bucket per timestamp and a small min-heap orders the buckets by
// (time, opening order). A bucket holds its time and one contiguous run
// of event records: pushing appends to the newest bucket of the event's
// time, found through a direct-mapped cache keyed by the time's bits, or
// opens a new bucket when the cache slot holds another time or a
// drained bucket; popping indexes the top bucket's run and sifts the
// heap only when a bucket opens or drains.
//
// The order is exact: a push of time t always lands in t's newest
// bucket (a cache hit is, by construction, the newest; a miss opens a
// newer one), so every event of an older bucket of t precedes every
// event of a newer one, and buckets of one time pop in opening order.
// Slot collisions, drained and reused buckets, and pushes at the current
// time while its bucket drains only ever open extra buckets, never
// reorder events.
//
// Drained buckets keep their runs for reuse, within this run and across
// resets; trim bounds what a queue keeps once a run is over.
type eventQueue struct {
	// buckets holds every bucket the queue has made. A drained bucket's
	// run is empty and its index waits in spare until reused.
	buckets []bucket
	spare   []int32
	// heap is a min-heap of live bucket indices by (time, seq).
	heap []int32
	// opened counts buckets opened since reset: the next bucket's seq.
	opened int
	// queued counts the events pushed and not yet popped since reset,
	// and peak is its maximum.
	queued, peak int
	// cache maps a time's slot to the newest bucket opened for a time
	// in that slot, or -1.
	cache [queueSlots]int32
}

// bucket is the FIFO of events sharing one timestamp: recs[head:] are
// queued, recs[:head] already popped. It is live while head < len(recs).
type bucket struct {
	time float64
	seq  int
	head int
	recs []event
}

const queueSlots = 64

// queueKeep and queueFloor bound the record capacity a queue keeps
// after a run: queueKeep records per event the run had queued at its
// peak, or queueFloor records (48 KiB), whichever is more (see trim).
const (
	queueKeep  = 32
	queueFloor = 1 << 12
)

// reset empties the queue, keeping every bucket and its run's memory.
func (q *eventQueue) reset() {
	q.spare, q.heap = q.spare[:0], q.heap[:0]
	for i := len(q.buckets) - 1; i >= 0; i-- {
		q.buckets[i].recs, q.buckets[i].head = q.buckets[i].recs[:0], 0
		q.spare = append(q.spare, int32(i))
	}
	q.opened, q.queued, q.peak = 0, 0, 0
	for i := range q.cache {
		q.cache[i] = -1
	}
}

// kept returns the record capacity the queue's buckets hold.
func (q *eventQueue) kept() int {
	n := 0
	for i := range q.buckets {
		n += cap(q.buckets[i].recs)
	}
	return n
}

// trim drops every bucket when, after a run, their runs hold more than
// queueKeep records per event the run had queued at its peak and more
// than queueFloor records, so a pooled queue keeps no large run's
// memory into a small one. A run grows only when every record in it is
// still queued (push reuses a popped prefix first), so a bucket holds
// about twice the most events it ever had queued at once. What trim
// catches is capacity left behind by an earlier, larger run, or by many
// buckets taking turns at holding a large wave. The floor spares the
// small arenas that meet runs of many shapes from regrowing: the
// training step's plans keep at most 712 records, the plan service's at
// most 272. trim leaves the queue to be reset before its next use.
func (q *eventQueue) trim() {
	if n := q.kept(); n <= queueKeep*q.peak || n <= queueFloor {
		return
	}
	clear(q.buckets)
	q.buckets = q.buckets[:0]
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

// push queues e at time t.
func (q *eventQueue) push(t float64, e event) {
	if q.queued++; q.queued > q.peak {
		q.peak = q.queued
	}
	slot := slotOf(t)
	if b := q.cache[slot]; b >= 0 {
		if bk := &q.buckets[b]; bk.head < len(bk.recs) && bk.time == t {
			if len(bk.recs) == cap(bk.recs) && bk.head > 0 {
				// Reuse the popped prefix rather than grow the run.
				n := copy(bk.recs, bk.recs[bk.head:])
				bk.recs, bk.head = bk.recs[:n], 0
			}
			bk.recs = append(bk.recs, e)
			return
		}
	}
	q.cache[slot] = q.open(t, e)
}

// open starts a bucket of time t holding e and adds it to the heap.
func (q *eventQueue) open(t float64, e event) int32 {
	var b int32
	if n := len(q.spare); n > 0 {
		b = q.spare[n-1]
		q.spare = q.spare[:n-1]
	} else {
		b = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{})
	}
	bk := &q.buckets[b]
	bk.time, bk.seq = t, q.opened
	bk.recs = append(bk.recs, e)
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

// pop removes and returns the next event and its time; the queue must
// not be empty.
func (q *eventQueue) pop() (float64, event) {
	b := q.heap[0]
	bk := &q.buckets[b]
	e := bk.recs[bk.head]
	bk.head++
	q.queued--
	if bk.head == len(bk.recs) {
		bk.recs, bk.head = bk.recs[:0], 0
		q.drop()
		q.spare = append(q.spare, b)
	}
	return bk.time, e
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
