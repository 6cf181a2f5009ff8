// Package fault defines deterministic fault-injection schedules for the
// simulator and the data-plane runtime: seeded, reproducible lists of
// timed events — link bandwidth degradation, full link-down windows,
// NIC flaps and straggler thread blocks — that degrade a run while it
// executes.
//
// Determinism is the package's core contract: a Schedule is plain data,
// Generate is a pure function of (topology, Params) driven by a seeded
// PRNG, and consumers (internal/sim, internal/rt) apply events in a
// deterministic order. Two runs of the same configuration therefore
// produce identical timings and identical recovery-action logs, which
// the golden tests and the EXPERIMENTS harness rely on.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// DownFactor is the residual capacity fraction of a downed link. It is
// small but positive so the max-min solver stays well-defined: flows on
// a downed link crawl rather than divide by zero, and resume at full
// rate when the window closes.
const DownFactor = 1e-6

// Kind classifies a fault event.
type Kind int

// Fault event kinds.
const (
	// KindLinkDegrade multiplies the capacity of the event's resources
	// by Factor (0 < Factor < 1) for the window — background traffic
	// from other jobs. A window that opens at 0 and outlasts the run is
	// static background load.
	KindLinkDegrade Kind = iota
	// KindLinkDown removes the event's resources for the window
	// (capacity drops to DownFactor of nominal).
	KindLinkDown
	// KindNICFlap is a link-down window covering both queues (egress
	// and ingress) of one NIC — the port-flap failure mode of RoCE/IB
	// fabrics.
	KindNICFlap
	// KindStraggler slows one thread block: every transfer the TB
	// drives runs at 1/Factor of its normal capability and pays
	// Factor× the startup latency for the window.
	KindStraggler
	// KindLinkOut is a permanent link failure: the event's resources
	// never come back (Duration = +Inf). The runtime escalates past
	// retry/degrade to plan-level replanning on the carved topology.
	KindLinkOut
	// KindRankOut is a permanent GPU failure: rank Rank leaves the
	// communicator for good (Duration = +Inf). Runtime-only — the flow
	// simulator has no rank-departure abstraction.
	KindRankOut
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLinkDegrade:
		return "link-degrade"
	case KindLinkDown:
		return "link-down"
	case KindNICFlap:
		return "nic-flap"
	case KindStraggler:
		return "straggler"
	case KindLinkOut:
		return "link-out"
	case KindRankOut:
		return "rank-out"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Permanent reports whether the kind models a failure that never heals
// (Duration = +Inf): the trigger for plan-level recovery.
func (k Kind) Permanent() bool { return k == KindLinkOut || k == KindRankOut }

// Event is one timed fault. Times are simulated seconds from run start;
// the event is active on [Start, Start+Duration).
type Event struct {
	Kind     Kind
	Start    float64
	Duration float64
	// Resources are the capacity resources a link event affects (one
	// for plain link events, the two NIC queues for a flap). Unused by
	// stragglers.
	Resources []topo.ResourceID
	// Factor is the capacity multiplier for KindLinkDegrade (0..1) or
	// the slowdown multiplier (≥ 1) for KindStraggler.
	Factor float64
	// TB is the straggler's global thread-block index in the simulated
	// run (session TB offset + TBProgram.ID; equal to the TB ID for
	// single-session runs).
	TB int
	// Attempts is the runtime-facing severity of a down window: how
	// many consecutive send attempts of each instance crossing the
	// downed link fail before it clears. The wall-clock runtime has no
	// simulated clock, so down windows translate to attempt counts
	// (zero means one failed attempt).
	Attempts int
	// Rank is the failed GPU of a KindRankOut event. Unused otherwise.
	Rank ir.Rank
}

// End returns the event's closing time (+Inf for permanent events).
func (e Event) End() float64 { return e.Start + e.Duration }

// Validate checks one event against a topology and a thread-block
// count (nTBs ≤ 0 skips the straggler bound check).
func (e Event) Validate(t *topo.Topology, nTBs int) error {
	if e.Start < 0 || e.Duration <= 0 || math.IsNaN(e.Duration) || math.IsInf(e.Start, 0) {
		return fmt.Errorf("fault: %v event has invalid window [%g, %g)", e.Kind, e.Start, e.End())
	}
	if e.Kind.Permanent() != math.IsInf(e.Duration, 1) {
		if e.Kind.Permanent() {
			return fmt.Errorf("fault: %v event is permanent but has finite duration %g (want +Inf)", e.Kind, e.Duration)
		}
		return fmt.Errorf("fault: %v event has infinite duration (only permanent kinds may)", e.Kind)
	}
	switch e.Kind {
	case KindLinkDegrade:
		if e.Factor <= 0 || e.Factor >= 1 {
			return fmt.Errorf("fault: link-degrade factor %g outside (0, 1)", e.Factor)
		}
		fallthrough
	case KindLinkDown, KindNICFlap, KindLinkOut:
		if len(e.Resources) == 0 {
			return fmt.Errorf("fault: %v event names no resources", e.Kind)
		}
		for _, r := range e.Resources {
			if int(r) < 0 || int(r) >= t.NResources() {
				return fmt.Errorf("fault: %v event names unknown resource %d", e.Kind, r)
			}
		}
	case KindStraggler:
		if e.Factor < 1 {
			return fmt.Errorf("fault: straggler slowdown %g < 1", e.Factor)
		}
		if e.TB < 0 || (nTBs > 0 && e.TB >= nTBs) {
			return fmt.Errorf("fault: straggler names TB %d outside [0, %d)", e.TB, nTBs)
		}
	case KindRankOut:
		if e.Rank < 0 || int(e.Rank) >= t.NRanks() {
			return fmt.Errorf("fault: rank-out names rank %d outside [0, %d)", e.Rank, t.NRanks())
		}
	default:
		return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// Describe renders the event for traces and logs.
func (e Event) Describe(t *topo.Topology) string {
	switch e.Kind {
	case KindStraggler:
		return fmt.Sprintf("%v TB %d ×%.1f [%.3f, %.3f)ms", e.Kind, e.TB, e.Factor, e.Start*1e3, e.End()*1e3)
	case KindLinkDegrade:
		return fmt.Sprintf("%v %s ×%.2f [%.3f, %.3f)ms", e.Kind, describeResources(t, e.Resources), e.Factor, e.Start*1e3, e.End()*1e3)
	case KindLinkOut:
		return fmt.Sprintf("%v %s [%.3f, ∞)ms", e.Kind, describeResources(t, e.Resources), e.Start*1e3)
	case KindRankOut:
		return fmt.Sprintf("%v rank %d [%.3f, ∞)ms", e.Kind, e.Rank, e.Start*1e3)
	default:
		return fmt.Sprintf("%v %s [%.3f, %.3f)ms", e.Kind, describeResources(t, e.Resources), e.Start*1e3, e.End()*1e3)
	}
}

func describeResources(t *topo.Topology, rs []topo.ResourceID) string {
	s := ""
	for i, r := range rs {
		if i > 0 {
			s += "+"
		}
		if t != nil {
			s += t.DescribeResource(r)
		} else {
			s += fmt.Sprintf("res%d", r)
		}
	}
	return s
}

// Schedule is a reproducible fault plan: the seed that generated it (0
// for hand-built schedules) and its events. A nil or empty schedule
// injects nothing.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Empty reports whether the schedule (possibly nil) has no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Sorted returns the events ordered by (Start, End, Kind) — the
// deterministic application order.
func (s *Schedule) Sorted() []Event {
	if s == nil {
		return nil
	}
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].End() != out[j].End() {
			return out[i].End() < out[j].End()
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Validate checks every event against the topology; nTBs > 0 also
// bounds straggler targets.
func (s *Schedule) Validate(t *topo.Topology, nTBs int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if err := e.Validate(t, nTBs); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// PermanentFailures returns the union of permanently dead resources and
// ranks over the whole schedule, each sorted and deduplicated — the set
// a replan carves out of the topology. A health sweep triggered by the
// first exhausted retry budget is assumed to discover every permanent
// failure at once, which keeps the replan deterministic and single-shot.
func (s *Schedule) PermanentFailures() (res []topo.ResourceID, ranks []ir.Rank) {
	if s == nil {
		return nil, nil
	}
	seenRes := make(map[topo.ResourceID]bool)
	seenRank := make(map[ir.Rank]bool)
	for _, e := range s.Events {
		switch e.Kind {
		case KindLinkOut:
			for _, r := range e.Resources {
				if !seenRes[r] {
					seenRes[r] = true
					res = append(res, r)
				}
			}
		case KindRankOut:
			if !seenRank[e.Rank] {
				seenRank[e.Rank] = true
				ranks = append(ranks, e.Rank)
			}
		}
	}
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	return res, ranks
}

// --- constructors ---

// LinkDown builds a full outage of one resource over [start, start+dur).
func LinkDown(res topo.ResourceID, start, dur float64) Event {
	return Event{Kind: KindLinkDown, Start: start, Duration: dur, Resources: []topo.ResourceID{res}}
}

// LinkDegrade builds a partial-capacity window: the resource keeps
// factor (0..1) of its bandwidth.
func LinkDegrade(res topo.ResourceID, start, dur, factor float64) Event {
	return Event{Kind: KindLinkDegrade, Start: start, Duration: dur,
		Resources: []topo.ResourceID{res}, Factor: factor}
}

// NICFlap builds a down window covering both queues of NIC n.
func NICFlap(t *topo.Topology, nic int, start, dur float64) Event {
	eg, in := t.NICResources(nic)
	return Event{Kind: KindNICFlap, Start: start, Duration: dur,
		Resources: []topo.ResourceID{eg, in}}
}

// Straggler builds a thread-block slowdown window (slowdown ≥ 1).
func Straggler(tb int, start, dur, slowdown float64) Event {
	return Event{Kind: KindStraggler, Start: start, Duration: dur, TB: tb, Factor: slowdown}
}

// LinkOut builds a permanent failure of one resource from start onward.
func LinkOut(res topo.ResourceID, start float64) Event {
	return Event{Kind: KindLinkOut, Start: start, Duration: math.Inf(1),
		Resources: []topo.ResourceID{res}}
}

// RankOut builds a permanent failure of one GPU from start onward.
func RankOut(rank ir.Rank, start float64) Event {
	return Event{Kind: KindRankOut, Start: start, Duration: math.Inf(1), Rank: rank}
}

// --- seeded generation ---

// Params drives random schedule generation.
type Params struct {
	// Seed makes the schedule reproducible; equal Params yield equal
	// schedules.
	Seed int64
	// N is the number of events to generate.
	N int
	// Horizon is the window (seconds) in which events start.
	Horizon float64
	// MeanDuration is the average event length (seconds); individual
	// durations vary uniformly in [0.5, 1.5]× around it.
	MeanDuration float64
	// NTBs enables straggler events when > 0: stragglers target a
	// uniform TB in [0, NTBs).
	NTBs int
	// MaxSlowdown caps straggler slowdown (default 4).
	MaxSlowdown float64
	// Permanent appends that many permanent link-out events (distinct
	// links, starts uniform in the horizon) after the N transient
	// events. Zero keeps the schedule transient-only.
	Permanent int
}

// Generate builds a reproducible random schedule against a topology.
// The event mix is fixed: 40% degradations, 30% link-down windows, 15%
// NIC flaps (inter-node topologies only) and 15% stragglers (when NTBs
// is set); unavailable kinds fall back to link-down. Link events target
// NIC queues on multi-node topologies and point-to-point channels on
// single-node ones — the links collectives actually traverse.
func Generate(t *topo.Topology, p Params) *Schedule {
	if (p.N <= 0 && p.Permanent <= 0) || p.Horizon <= 0 {
		return &Schedule{Seed: p.Seed}
	}
	if p.MeanDuration <= 0 {
		p.MeanDuration = p.Horizon / 10
	}
	if p.MaxSlowdown < 1 {
		p.MaxSlowdown = 4
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := &Schedule{Seed: p.Seed}
	for i := 0; i < p.N; i++ {
		start := rng.Float64() * p.Horizon
		dur := p.MeanDuration * (0.5 + rng.Float64())
		var e Event
		switch roll := rng.Float64(); {
		case roll < 0.40:
			e = LinkDegrade(randLink(t, rng), start, dur, 0.1+0.8*rng.Float64())
		case roll < 0.70:
			e = LinkDown(randLink(t, rng), start, dur)
		case roll < 0.85:
			if t.NNodes > 1 {
				e = NICFlap(t, rng.Intn(t.NNICs()), start, dur)
			} else {
				e = LinkDown(randLink(t, rng), start, dur)
			}
		default:
			if p.NTBs > 0 {
				e = Straggler(rng.Intn(p.NTBs), start, dur, 1+(p.MaxSlowdown-1)*rng.Float64())
			} else {
				e = LinkDown(randLink(t, rng), start, dur)
			}
		}
		// Down windows carry a runtime severity proportional to their
		// share of the horizon: longer outages fail more attempts.
		if e.Kind == KindLinkDown || e.Kind == KindNICFlap {
			e.Attempts = 1 + int(3*dur/p.Horizon*float64(p.N))
		}
		s.Events = append(s.Events, e)
	}
	// Permanent failures strike distinct links so k requested failures
	// carve k resources (repeating a dead link would waste the budget).
	if p.Permanent > 0 {
		seen := make(map[topo.ResourceID]bool)
		for k := 0; k < p.Permanent; k++ {
			res := randLink(t, rng)
			for tries := 0; seen[res] && tries < 16; tries++ {
				res = randLink(t, rng)
			}
			if seen[res] {
				continue
			}
			seen[res] = true
			s.Events = append(s.Events, LinkOut(res, rng.Float64()*p.Horizon))
		}
	}
	return s
}

// Within builds the schedule a run injects into a collective it has
// already simulated clean: n seeded events starting within the clean
// completion time (horizon), of mean duration horizon/8, stragglers
// drawn from nTBs thread blocks.
func Within(t *topo.Topology, seed int64, n int, horizon float64, nTBs int) *Schedule {
	return Generate(t, Params{Seed: seed, N: n, Horizon: horizon, MeanDuration: horizon / 8, NTBs: nTBs})
}

// randLink picks a serializing link: a NIC queue on multi-node
// topologies, a point-to-point channel between adjacent ranks on
// single-node ones.
func randLink(t *topo.Topology, rng *rand.Rand) topo.ResourceID {
	if t.NNodes > 1 {
		eg, in := t.NICResources(rng.Intn(t.NNICs()))
		if rng.Intn(2) == 0 {
			return eg
		}
		return in
	}
	n := t.NRanks()
	src := rng.Intn(n)
	dst := (src + 1 + rng.Intn(n-1)) % n
	return t.PairLink(ir.Rank(src), ir.Rank(dst))
}
