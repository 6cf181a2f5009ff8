package sim

import (
	"fmt"
	"math"
	"sort"

	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/topo"
)

// Fault injection: a fault.Schedule is the simulator's one model of
// lost capacity, static background load included (a degrade window that
// opens at 0 and outlasts the run). Every event window contributes two
// boundaries (open, close); the simulator schedules the next boundary as
// an ordinary queued event, and firing one recomputes the affected
// resources' capacity scale (or thread-block slowdown) and re-solves
// max-min rates for the touched component — the same path a flow
// arrival or departure takes, so determinism is preserved.

// FaultEvent records one fault window the simulator applied, for traces
// and goodput-under-fault reporting.
type FaultEvent struct {
	// Time and End bound the window in simulated seconds.
	Time, End float64
	// Kind is the fault.Kind name ("link-down", "straggler", …).
	Kind string
	// Detail describes the target (resource names, TB, factor).
	Detail string
}

// faultBound is one half of an event window.
type faultBound struct {
	time float64
	on   bool
	ev   fault.Event
}

type faultState struct {
	sched  *fault.Schedule
	bounds []faultBound
	next   int
	// capFactor[r] is the fraction of resource r's capacity surviving
	// the currently active link events (1 = nominal).
	capFactor []float64
	// tbSlow[tb] is the active slowdown of global TB tb (1 = nominal).
	tbSlow []float64
	// applied collects opened windows in firing order.
	applied []FaultEvent
	// scratch for straggler recomputation.
	resScratch []topo.ResourceID
}

func newFaultState(sched *fault.Schedule, s *sim) (*faultState, error) {
	if err := sched.Validate(s.topo, len(s.tbs)); err != nil {
		return nil, fmt.Errorf("sim: invalid fault schedule: %w", err)
	}
	// Permanent link-out events degenerate to capacity ≈ 0 forever; a
	// rank-out event touches no resource here. Recovery (internal/replan)
	// strands the tasks either would block before the run starts.
	fs := &faultState{
		sched:     sched,
		capFactor: make([]float64, s.topo.NResources()),
		tbSlow:    make([]float64, len(s.tbs)),
	}
	for i := range fs.capFactor {
		fs.capFactor[i] = 1
	}
	for i := range fs.tbSlow {
		fs.tbSlow[i] = 1
	}
	for _, ev := range sched.Sorted() {
		fs.bounds = append(fs.bounds,
			faultBound{time: ev.Start, on: true, ev: ev},
			faultBound{time: ev.End(), on: false, ev: ev})
	}
	sort.SliceStable(fs.bounds, func(i, j int) bool {
		if fs.bounds[i].time != fs.bounds[j].time {
			return fs.bounds[i].time < fs.bounds[j].time
		}
		// Close windows before opening new ones at the same instant.
		return !fs.bounds[i].on && fs.bounds[j].on
	})
	return fs, nil
}

// pushNextBound schedules the next unfired boundary as a queued event.
// Close boundaries of permanent events sit at +Inf (sorted last) and are
// never scheduled: the window simply never ends.
func (s *sim) pushNextBound() {
	fs := s.fault
	if fs == nil || fs.next >= len(fs.bounds) {
		return
	}
	if t := fs.bounds[fs.next].time; !math.IsInf(t, 1) {
		s.events.push(t, event{kind: evFault, task: gid(fs.next)})
	}
}

// applyFaultBound fires boundary i: refresh the affected capacity
// scales / TB slowdowns from the set of windows active at s.now, record
// newly opened windows, and re-solve rates around everything touched.
func (s *sim) applyFaultBound(i int) {
	fs := s.fault
	b := fs.bounds[i]
	fs.next = i + 1
	s.pushNextBound()

	if b.on {
		fs.applied = append(fs.applied, FaultEvent{
			Time: b.ev.Start, End: b.ev.End(),
			Kind: b.ev.Kind.String(), Detail: b.ev.Describe(s.topo),
		})
	}
	if b.ev.Kind == fault.KindStraggler {
		fs.refreshTBSlow(b.ev.TB, s.now)
		s.recomputeStraggler(b.ev.TB)
		return
	}
	for _, r := range b.ev.Resources {
		fs.refreshCapFactor(r, s.now)
	}
	s.markDirty(b.ev.Resources)
}

// refreshCapFactor recomputes resource r's surviving-capacity fraction
// from all link windows active at time now.
func (fs *faultState) refreshCapFactor(r topo.ResourceID, now float64) {
	f := 1.0
	for _, ev := range fs.sched.Events {
		if ev.Kind == fault.KindStraggler || ev.Start > now || now >= ev.End() {
			continue
		}
		for _, res := range ev.Resources {
			if res == r {
				if ev.Kind == fault.KindLinkDegrade {
					f *= ev.Factor
				} else {
					f *= fault.DownFactor
				}
				break
			}
		}
	}
	fs.capFactor[r] = f
}

// refreshTBSlow recomputes TB tb's slowdown from all straggler windows
// active at time now.
func (fs *faultState) refreshTBSlow(tb int, now float64) {
	f := 1.0
	for _, ev := range fs.sched.Events {
		if ev.Kind != fault.KindStraggler || ev.TB != tb || ev.Start > now || now >= ev.End() {
			continue
		}
		f *= ev.Factor
	}
	fs.tbSlow[tb] = f
}

// recomputeStraggler re-solves rates for every active flow the TB
// drives — its capability cap changed, so its component's max-min
// shares change too.
func (s *sim) recomputeStraggler(tb int) {
	fs := s.fault
	fs.resScratch = fs.resScratch[:0]
	for t := range s.tasks {
		ts := &s.tasks[t]
		if !ts.active {
			continue
		}
		if int(ts.sendTB) == tb || int(ts.recvTB) == tb {
			fs.resScratch = append(fs.resScratch, ts.resources...)
		}
	}
	if len(fs.resScratch) == 0 {
		return
	}
	s.markDirty(fs.resScratch)
}

// taskSlow returns the slowdown of task t's driving thread blocks (the
// max of its send and receive TB — a transfer runs at its slowest
// driver).
func (s *sim) taskSlow(t gid) float64 {
	fs := s.fault
	ts := &s.tasks[t]
	a := fs.tbSlow[ts.sendTB]
	if b := fs.tbSlow[ts.recvTB]; b > a {
		a = b
	}
	return a
}

// flowCap is the task's effective TB capability under active faults.
func (s *sim) flowCap(t gid) float64 {
	if s.fault == nil {
		return s.tasks[t].cap
	}
	return s.tasks[t].cap / s.taskSlow(t)
}
