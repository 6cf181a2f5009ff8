package sim

import (
	"github.com/resccl/resccl/internal/topo"
)

// Rate computation: flows share resources max-min (progressive filling)
// subject to two constraints from the paper's cost model:
//
//   - each flow's rate is capped by the driving thread block's
//     capability (TBCap);
//   - a serializing link whose aggregate demanded capability exceeds its
//     bandwidth by factor z suffers the Eq. 1 contention penalty: its
//     effective capacity is divided by 1 + γ·L(z), L(z) = min(z−1, 1)².
//
// Rates are recomputed only for the connected component of flows reached
// through shared resources, so the cost of a flow arrival/departure is
// proportional to the local contention, not the cluster size.
//
// The solver is incremental along three axes:
//
//   - Event coalescing: discrete events cluster heavily on identical
//     timestamps (symmetric plans finish whole waves of transfers at the
//     same instant). Instead of re-solving after every event, handlers
//     mark the perturbed resources dirty (markDirty) and the event loop
//     flushes one progressive-filling solve per dirty connected
//     component per unique timestamp (flushRates). This is exact, not
//     approximate: zero simulated time elapses between same-timestamp
//     events, rates are a pure function of the post-batch flow/resource
//     state, stale completion events are version-guarded, and a flow's
//     completion is rescheduled whenever its rate changes by any amount
//     (an exact comparison: a tolerance would let the per-event path's
//     intermediate solves hold a rate the coalesced solve moves) — so the
//     deferred solve produces bit-identical timings to the per-event
//     reference (Config.FullResolve retains that reference path, and
//     TestIncrementalMatchesFullResolve holds the two equal across the
//     chaos corpus).
//   - Non-binding resources: a resource whose one flow's cap is at most
//     its capacity can never decide a rate, so the component search
//     leaves it out of the filling and marks it covered (cannotBind
//     proves the float tolerances agree). FullResolve keeps it in.
//   - Filling compaction: within one solve, per-resource frozen load and
//     unfrozen-member counts are cached and refreshed only for resources
//     whose membership changed since the last round (always summing in
//     membership order, so float results are independent of when the
//     refresh happens), and fully frozen flows/resources drop out of the
//     round scans entirely.
//
// All scratch state lives in the sim and is generation-stamped instead
// of cleared, keeping the hot path allocation-free.

type rateScratch struct {
	gen int32
	// Per-task component membership and index.
	flowGen []int32
	flowIdx []int32
	// Per-resource component membership and index.
	resGen []int32
	resIdx []int32
	// Component working sets (reused).
	flows     []gid
	resources []topo.ResourceID
	queue     []topo.ResourceID
	rates     []float64
	frozen    []bool
	effCap    []float64
	// caps[i] is flowCap(flows[i]), computed once per maxMin round
	// instead of once per progressive-filling iteration.
	caps []float64
	// resFlat/resOff give, for component resource i, the component flow
	// indices on it: resFlat[resOff[i]:resOff[i+1]]. The component search
	// lays them out, so the filling loops never re-walk the resource
	// membership lists or re-translate global ids through flowIdx.
	resFlat []int32
	resOff  []int32
	// Cached per-round filling state: resN[i] unfrozen members,
	// resLoad[i] frozen load (summed in resFlat order), resDirty[i] set
	// when a member froze since the last refresh. actRes/actFlows are
	// the compacted not-yet-settled resource/flow index lists.
	resN     []int32
	resLoad  []float64
	resDirty []bool
	actRes   []int32
	actFlows []int32
}

// reset sizes the per-task and per-resource marks for a run and
// restarts the generation counter with them.
func (rs *rateScratch) reset(nTasks, nResources int) {
	rs.gen = 0
	rs.flowGen = reuse(rs.flowGen, nTasks)
	rs.flowIdx = reuse(rs.flowIdx, nTasks)
	rs.resGen = reuse(rs.resGen, nResources)
	rs.resIdx = reuse(rs.resIdx, nResources)
}

// markDirty records that the given resources were perturbed (a flow
// joined, left, or changed capability) and that their connected
// components need a rate re-solve before simulated time advances. Under
// Config.FullResolve the re-solve happens immediately instead — the
// retained reference path the equivalence property test compares
// against.
func (s *sim) markDirty(seed []topo.ResourceID) {
	if s.fullResolve {
		s.recomputeAround(seed)
		return
	}
	for _, r := range seed {
		if s.dirtyMark[r] != s.dirtyGen {
			s.dirtyMark[r] = s.dirtyGen
			s.dirtySeeds = append(s.dirtySeeds, r)
		}
	}
}

// flushRates re-solves every connected component holding a dirty
// resource, one progressive-filling pass per component (components are
// independent: the max-min allocation of one cannot influence another);
// a component that is one flow alone on its resources is solved in
// closed form. FullResolve keeps progressive filling for every
// component, so the equivalence tests check the closed form too.
// Called by the event loop once per unique timestamp (and before the
// run retires), never between same-timestamp events.
func (s *sim) flushRates() {
	if len(s.dirtySeeds) == 0 {
		return
	}
	rs := &s.scratch
	s.coveredGen++
	for _, r := range s.dirtySeeds {
		if s.coveredMark[r] == s.coveredGen || s.resCnt[r] == 0 {
			continue // swallowed by an earlier component, or no flows
		}
		if s.solveLone(r) {
			continue
		}
		s.seedOne[0] = r
		s.recomputeAround(s.seedOne[:])
		for _, cr := range rs.resources {
			s.coveredMark[cr] = s.coveredGen
		}
	}
	s.dirtySeeds = s.dirtySeeds[:0]
	s.dirtyGen++
}

// solveLone gives resource r's flow its max-min rate in closed form
// when that flow is alone on every resource it crosses, and reports
// whether it was. Progressive filling on such a component settles in
// one round at level ρ = max(0, min(cap, capacity of each resource)):
// the flow freezes at its cap if the cap is at most ρ·(1+1e-12), at ρ
// otherwise. The arithmetic below is the filling loop's own, so the
// rate is bit-identical to maxMin's.
func (s *sim) solveLone(r topo.ResourceID) bool {
	if s.resCnt[r] != 1 {
		return false
	}
	f := s.resFlowsOf(r)[0]
	ts := &s.tasks[f]
	for _, fr := range ts.resources {
		if s.resCnt[fr] != 1 {
			return false
		}
	}
	c := s.flowCap(f)
	rho := c
	for _, fr := range ts.resources {
		if e := s.capacity(fr); e < rho {
			rho = e
		}
		s.coveredMark[fr] = s.coveredGen
	}
	rate := c // a level at or above fillInf leaves the flow at its cap
	if rho < fillInf {
		if rho < 0 {
			rho = 0
		}
		if c > rho*(1+1e-12) {
			rate = rho
		}
	}
	s.advanceFlow(f)
	if ts.rate != rate || ts.rate == 0 {
		ts.rate = rate
		s.scheduleDataDone(f)
	}
	return true
}

// cannotBind reports whether resource r, whose active flows are flows,
// can be left out of its component's progressive filling without
// changing a single bit of any rate: it carries one flow f, and f's cap
// c (after stragglers) is at most r's capacity C (after faults).
//
// Alone on r, f meets no contention penalty and no frozen load, so r's
// level is C, never below the level c that f's cap already offers: the
// filling's minimum is the same without r. And r freezes nothing but f.
// It would freeze f at the round's level ρ when ρ passes r's saturation
// test ρ ≥ fl(C·k₂), and it matters only if f's cap test c ≤ fl(ρ·k₁),
// which runs first in the same round, fails. Here k₁ = fl(1+1e-12) =
// 1 + 9008·2⁻⁵³ and k₂ = fl(1−1e-12) = 1 − 9007·2⁻⁵³ are the filling
// loop's tolerances, and k₁k₂ < 1, so the window is not empty in the
// reals. It is empty in float64: fl(ρ·k₁) ≥ C for every ρ ≥ fl(C·k₂),
// so the cap test passes whenever the saturation test does (c ≤ C).
// fl is monotone, so take ρ = fl(C·k₂) and write C = m·2ᵉ with m an
// integer, m ∈ [2⁵², 2⁵³) for a normal C and m < 2⁵² at e = −1074 for a
// subnormal one. In units of 2ᵉ, C·k₂ = m − t with t = 9007m/2⁵³ <
// 9007, rounded to ρ = m − T with |T − t| ≤ ½, and
//
//	ρ·k₁ − m = m/2⁵³ − (T − t) − 9008T/2⁵³.
//
// For a normal C, m/2⁵³ ≥ ½ and 9008T/2⁵³ < 1e-8, so ρ·k₁ > m − ¼; the
// representable number below m lies at least ½ below it, so ρ·k₁
// rounds to at least m. For a subnormal C the spacing is 1: T = 0 gives
// ρ = C, and T ≥ 1 needs m > 5·10¹¹, where m/2⁵³ exceeds 9008T/2⁵³, so
// ρ·k₁ > m − ½ again rounds to at least m. C = 0 and C = +Inf hold
// trivially. The saturation test's left side is 0 + 1·ρ, exact with or
// without a fused multiply-add. Since f freezes at its cap in that
// round, r never supplies a round's only progress either.
// TestCannotBindWindowEmpty checks the inequality on the edge cases
// and a random sample of capacities.
func (s *sim) cannotBind(r topo.ResourceID, flows []gid) bool {
	return len(flows) == 1 && s.flowCap(flows[0]) <= s.capacity(r)
}

// capacity returns resource r's capacity net of active faults, before
// any contention penalty.
func (s *sim) capacity(r topo.ResourceID) float64 {
	c := s.resCap[r]
	if s.fault != nil {
		c *= s.fault.capFactor[r]
	}
	return c
}

// recomputeAround recomputes rates for all flows transitively sharing
// resources with the given seed set. Its search also lays out the
// component's flat membership for maxMin: each resource's flows, as
// component flow indices, in membership order. Outside FullResolve it
// leaves out of that layout, and marks covered, every resource that
// cannot bind (cannotBind); such a resource has one flow, so leaving it
// out splits no component, and the flows keep their search order.
func (s *sim) recomputeAround(seed []topo.ResourceID) {
	rs := &s.scratch
	rs.gen++
	rs.flows = rs.flows[:0]
	rs.resources = rs.resources[:0]
	rs.queue = rs.queue[:0]
	rs.resOff = rs.resOff[:0]
	rs.resFlat = rs.resFlat[:0]

	for _, r := range seed {
		if rs.resGen[r] != rs.gen {
			rs.resGen[r] = rs.gen
			rs.queue = append(rs.queue, r)
		}
	}
	for len(rs.queue) > 0 {
		r := rs.queue[len(rs.queue)-1]
		rs.queue = rs.queue[:len(rs.queue)-1]
		flows := s.resFlowsOf(r)
		// The incremental solver leaves out resources that cannot bind;
		// their flow still joins the component, in search order.
		skip := !s.fullResolve && s.cannotBind(r, flows)
		if skip {
			rs.resIdx[r] = -1
			s.coveredMark[r] = s.coveredGen
		} else {
			rs.resIdx[r] = int32(len(rs.resources))
			rs.resources = append(rs.resources, r)
			rs.resOff = append(rs.resOff, int32(len(rs.resFlat)))
		}
		for _, f := range flows {
			if rs.flowGen[f] != rs.gen {
				rs.flowGen[f] = rs.gen
				rs.flowIdx[f] = int32(len(rs.flows))
				rs.flows = append(rs.flows, f)
				for _, fr := range s.tasks[f].resources {
					if rs.resGen[fr] != rs.gen {
						rs.resGen[fr] = rs.gen
						rs.queue = append(rs.queue, fr)
					}
				}
			}
			if !skip {
				rs.resFlat = append(rs.resFlat, rs.flowIdx[f])
			}
		}
	}
	rs.resOff = append(rs.resOff, int32(len(rs.resFlat)))
	if len(rs.flows) == 0 {
		return
	}
	// Charge elapsed bytes at the old rates before changing anything.
	for _, f := range rs.flows {
		s.advanceFlow(f)
	}
	s.maxMin()
	for i, f := range rs.flows {
		ts := &s.tasks[f]
		if ts.rate != rs.rates[i] || ts.rate == 0 {
			ts.rate = rs.rates[i]
			s.scheduleDataDone(f)
		}
	}
}

// maxMin runs progressive filling over the scratch component, leaving
// the per-flow rates in s.scratch.rates (parallel to s.scratch.flows).
func (s *sim) maxMin() {
	rs := &s.scratch
	nf := len(rs.flows)
	nr := len(rs.resources)
	rs.rates = reuse(rs.rates, nf)
	rs.frozen = reuse(rs.frozen, nf)
	rs.effCap = grow(rs.effCap, nr)

	// Per-flow caps, computed once: flowCap consults the fault engine
	// under active faults, and the filling loops below would otherwise
	// re-derive it every iteration.
	rs.caps = grow(rs.caps, nf)
	for i, f := range rs.flows {
		rs.caps[i] = s.flowCap(f)
	}

	// The flat per-resource flow-index lists recomputeAround laid out.
	resFlows := func(i int32) []int32 { return rs.resFlat[rs.resOff[i]:rs.resOff[i+1]] }

	// Effective capacities with the Eq. 1 contention penalty. A single
	// over-capable TB simply runs at link rate; contention needs ≥2
	// flows.
	for i, r := range rs.resources {
		c := s.capacity(r)
		if flows := resFlows(int32(i)); s.serial[r] && len(flows) > 1 {
			demand := 0.0
			for _, fi := range flows {
				demand += rs.caps[fi]
			}
			if z := demand / c; z > 1 {
				over := z - 1
				if over > 1 {
					over = 1
				}
				c /= 1 + s.topo.Gamma*over*over
			}
		}
		rs.effCap[i] = c
	}

	// Cached filling state. The frozen load of a resource only changes
	// when one of its members freezes; refresh() recomputes it lazily —
	// always summing in resFlat (membership) order, so the float value
	// is identical no matter which round triggers the refresh — and the
	// active lists let settled flows and resources drop out of the
	// round scans.
	rs.resN = grow(rs.resN, nr)
	rs.resLoad = grow(rs.resLoad, nr)
	rs.resDirty = reuse(rs.resDirty, nr)
	rs.actRes = grow(rs.actRes, nr)
	rs.actFlows = grow(rs.actFlows, nf)
	for i := 0; i < nr; i++ {
		rs.resN[i] = rs.resOff[i+1] - rs.resOff[i]
		rs.resLoad[i] = 0
		rs.actRes[i] = int32(i)
	}
	for i := 0; i < nf; i++ {
		rs.actFlows[i] = int32(i)
	}
	actRes := rs.actRes[:nr]
	actFlows := rs.actFlows[:nf]
	refresh := func(i int32) {
		if !rs.resDirty[i] {
			return
		}
		load, n := 0.0, int32(0)
		for _, fi := range resFlows(i) {
			if rs.frozen[fi] {
				load += rs.rates[fi]
			} else {
				n++
			}
		}
		rs.resLoad[i] = load
		rs.resN[i] = n
		rs.resDirty[i] = false
	}
	// freeze settles flow fi at rate v and invalidates the cached state
	// of every resource it sits on.
	freeze := func(fi int32, v float64) {
		rs.rates[fi] = v
		rs.frozen[fi] = true
		for _, r := range s.tasks[rs.flows[fi]].resources {
			if i := rs.resIdx[r]; i >= 0 { // not left out by the search
				rs.resDirty[i] = true
			}
		}
	}

	unfrozen := nf
	rho := 0.0

	for unfrozen > 0 {
		// Next saturation level across resources and flow caps. Fully
		// frozen resources are compacted out of the active list as the
		// scan encounters them (swap-remove keeps the scan linear; min
		// is order-independent, so compaction cannot change the level).
		next := fillInf
		for i := 0; i < len(actRes); {
			ri := actRes[i]
			refresh(ri)
			if rs.resN[ri] == 0 {
				actRes[i] = actRes[len(actRes)-1]
				actRes = actRes[:len(actRes)-1]
				continue
			}
			if sat := (rs.effCap[ri] - rs.resLoad[ri]) / float64(rs.resN[ri]); sat < next {
				next = sat
			}
			i++
		}
		for i := 0; i < len(actFlows); {
			fi := actFlows[i]
			if rs.frozen[fi] {
				actFlows[i] = actFlows[len(actFlows)-1]
				actFlows = actFlows[:len(actFlows)-1]
				continue
			}
			if rs.caps[fi] < next {
				next = rs.caps[fi]
			}
			i++
		}
		if next >= fillInf {
			for _, fi := range actFlows {
				if !rs.frozen[fi] {
					rs.rates[fi] = rs.caps[fi]
					rs.frozen[fi] = true
					unfrozen--
				}
			}
			break
		}
		if next < rho {
			next = rho
		}
		rho = next
		progress := false
		// Freeze flows capped at rho.
		for i := 0; i < len(actFlows); {
			fi := actFlows[i]
			if rs.frozen[fi] || rs.caps[fi] <= rho*(1+1e-12) {
				if !rs.frozen[fi] {
					freeze(fi, rs.caps[fi])
					unfrozen--
					progress = true
				}
				actFlows[i] = actFlows[len(actFlows)-1]
				actFlows = actFlows[:len(actFlows)-1]
				continue
			}
			i++
		}
		// Freeze flows on saturated resources.
		for i := 0; i < len(actRes); {
			ri := actRes[i]
			refresh(ri)
			if rs.resN[ri] == 0 {
				actRes[i] = actRes[len(actRes)-1]
				actRes = actRes[:len(actRes)-1]
				continue
			}
			if rs.resLoad[ri]+float64(rs.resN[ri])*rho >= rs.effCap[ri]*(1-1e-12) {
				for _, fi := range resFlows(ri) {
					if !rs.frozen[fi] {
						freeze(fi, rho)
						unfrozen--
						progress = true
					}
				}
			}
			i++
		}
		if !progress {
			// Numerical corner: freeze everything at rho to terminate.
			for i := range rs.flows {
				if !rs.frozen[i] {
					rs.rates[i] = rho
					rs.frozen[i] = true
					unfrozen--
				}
			}
		}
	}
}

// fillInf is progressive filling's "no level yet": a level at or above
// it means no resource or cap binds.
const fillInf = 1e300

// grow returns buf with length n without zeroing — for buffers whose
// every element is overwritten before use.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
