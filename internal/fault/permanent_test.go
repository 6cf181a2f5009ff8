package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// TestPermanentValidation: the permanence ↔ infinite-duration pairing is
// enforced in both directions, alongside the NaN/Inf window edges.
func TestPermanentValidation(t *testing.T) {
	tp := topo.New(1, 2, topo.A100())
	good := []Event{
		LinkOut(0, 0),
		LinkOut(0, 0.5),
		RankOut(1, 0),
	}
	for i, e := range good {
		if err := e.Validate(tp, 0); err != nil {
			t.Errorf("good event %d rejected: %v", i, err)
		}
	}
	bad := []Event{
		// Permanent kind with a finite duration.
		{Kind: KindLinkOut, Start: 0, Duration: 1, Resources: []topo.ResourceID{0}},
		// Transient kind with an infinite duration.
		{Kind: KindLinkDown, Start: 0, Duration: math.Inf(1), Resources: []topo.ResourceID{0}},
		// Zero-duration window (empty half-open interval).
		{Kind: KindLinkDown, Start: 0, Duration: 0, Resources: []topo.ResourceID{0}},
		// NaN duration and infinite start.
		{Kind: KindLinkDown, Start: 0, Duration: math.NaN(), Resources: []topo.ResourceID{0}},
		{Kind: KindLinkOut, Start: math.Inf(1), Duration: math.Inf(1), Resources: []topo.ResourceID{0}},
		// Rank out of range.
		{Kind: KindRankOut, Start: 0, Duration: math.Inf(1), Rank: 2},
		{Kind: KindRankOut, Start: 0, Duration: math.Inf(1), Rank: -1},
		// Link-out without resources.
		{Kind: KindLinkOut, Start: 0, Duration: math.Inf(1)},
	}
	for i, e := range bad {
		if err := e.Validate(tp, 0); err == nil {
			t.Errorf("bad event %d (%+v) unexpectedly valid", i, e)
		}
	}
}

// TestOverlappingWindowsValid: overlapping (and nested) transient
// windows are legal — severities compose — and sort deterministically.
func TestOverlappingWindowsValid(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	l := tp.PairLink(0, 1)
	s := &Schedule{Events: []Event{
		LinkDown(l, 0.1, 0.5),
		LinkDown(l, 0.2, 0.1),          // nested
		LinkDegrade(l, 0.15, 0.5, 0.5), // overlapping
		LinkOut(l, 0.3),                // permanent over the same link
	}}
	if err := s.Validate(tp, 0); err != nil {
		t.Fatalf("overlapping windows rejected: %v", err)
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Start < sorted[i-1].Start {
			t.Fatalf("sorted order broken at %d: %+v", i, sorted)
		}
	}
	// The permanent event's End() is +Inf and must sort after finite
	// windows opening at the same time without panicking.
	if !math.IsInf(sorted[len(sorted)-1].End(), 1) {
		t.Fatalf("permanent event lost in sort: %+v", sorted)
	}
}

// TestPermanentFailuresUnion: resources and ranks are deduplicated,
// sorted, and independent of event order.
func TestPermanentFailuresUnion(t *testing.T) {
	s := &Schedule{Events: []Event{
		RankOut(3, 0),
		LinkOut(7, 0),
		LinkOut(2, 0.1),
		LinkOut(7, 0.2), // duplicate resource
		RankOut(1, 0.3),
		RankOut(3, 0.4),      // duplicate rank
		LinkDown(9, 0, 1e-3), // transient: excluded
	}}
	res, ranks := s.PermanentFailures()
	if !reflect.DeepEqual(res, []topo.ResourceID{2, 7}) {
		t.Fatalf("resources %v, want [2 7]", res)
	}
	if !reflect.DeepEqual(ranks, []ir.Rank{1, 3}) {
		t.Fatalf("ranks %v, want [1 3]", ranks)
	}
}

// TestGeneratePermanent: the Permanent budget yields that many distinct
// dead links, deterministically per seed.
func TestGeneratePermanent(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	p := Params{Seed: 11, N: 8, Horizon: 1e-2, Permanent: 3}
	a := Generate(tp, p)
	b := Generate(tp, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same params produced different schedules")
	}
	if err := a.Validate(tp, 0); err != nil {
		t.Fatal(err)
	}
	res, ranks := a.PermanentFailures()
	if len(res) != p.Permanent || len(ranks) != 0 {
		t.Fatalf("permanent failures: %d resources %d ranks, want %d/0", len(res), len(ranks), p.Permanent)
	}
	// Permanent-only generation must work too (N = 0).
	only := Generate(tp, Params{Seed: 5, Horizon: 1e-2, Permanent: 2})
	if got, _ := only.PermanentFailures(); len(got) != 2 || len(only.Events) != 2 {
		t.Fatalf("permanent-only generation: %+v", only.Events)
	}
}

// TestParseScheduleRoundTrip: a well-formed JSON spec parses into the
// equivalent schedule, including the permanent-duration convention.
func TestParseScheduleRoundTrip(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	spec := `{
	  "seed": 9,
	  "events": [
	    {"kind": "link-down", "start": 0, "duration": 0.001, "resources": [0]},
	    {"kind": "link-degrade", "start": 0.001, "duration": 0.002, "resources": [1], "factor": 0.5},
	    {"kind": "nic-flap", "start": 0, "duration": 0.001, "nic": 1},
	    {"kind": "straggler", "start": 0, "duration": 0.001, "tb": 2, "factor": 2.0},
	    {"kind": "link-out", "start": 0.002, "resources": [3]},
	    {"kind": "rank-out", "start": 0, "rank": 2}
	  ]
	}`
	s, err := ParseSchedule([]byte(spec), tp)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 9 || len(s.Events) != 6 {
		t.Fatalf("parsed schedule wrong shape: %+v", s)
	}
	eg, in := tp.NICResources(1)
	flap := s.Events[2]
	if flap.Kind != KindNICFlap || !reflect.DeepEqual(flap.Resources, []topo.ResourceID{eg, in}) {
		t.Fatalf("nic shorthand not expanded: %+v", flap)
	}
	if !math.IsInf(s.Events[4].Duration, 1) || !math.IsInf(s.Events[5].Duration, 1) {
		t.Fatalf("permanent events did not get infinite windows: %+v", s.Events[4:])
	}
	if s.Events[5].Rank != 2 {
		t.Fatalf("rank-out rank lost: %+v", s.Events[5])
	}
	res, ranks := s.PermanentFailures()
	if !reflect.DeepEqual(res, []topo.ResourceID{3}) || !reflect.DeepEqual(ranks, []ir.Rank{2}) {
		t.Fatalf("permanent failures %v %v", res, ranks)
	}
}

// TestParseScheduleErrors: every malformed spec names the offending
// event by index and kind, so the error is actionable.
func TestParseScheduleErrors(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	cases := []struct {
		name, spec, want string
	}{
		{"no events", `{"events": []}`, "no events"},
		{"unknown kind", `{"events": [{"kind": "meteor", "start": 0, "duration": 1}]}`, `event 0 (kind "meteor")`},
		{"unknown field", `{"events": [{"kind": "link-down", "start": 0, "duration": 1, "resources": [0], "sevrity": 3}]}`, "sevrity"},
		{"permanent with duration", `{"events": [{"kind": "link-out", "start": 0, "duration": 1, "resources": [0]}]}`, "permanent events take no duration"},
		{"straggler without tb", `{"events": [{"kind": "straggler", "start": 0, "duration": 1, "factor": 2}]}`, `requires field "tb"`},
		{"tb on link event", `{"events": [{"kind": "link-down", "start": 0, "duration": 1, "resources": [0], "tb": 1}]}`, `"tb" only applies`},
		{"rank-out without rank", `{"events": [{"kind": "rank-out", "start": 0}]}`, `requires field "rank"`},
		{"rank out of range", `{"events": [{"kind": "rank-out", "start": 0, "rank": 99}]}`, "event 0"},
		{"nic out of range", `{"events": [{"kind": "nic-flap", "start": 0, "duration": 1, "nic": 9}]}`, "nic 9 outside"},
		{"nic on link event", `{"events": [{"kind": "link-down", "start": 0, "duration": 1, "resources": [0], "nic": 0}]}`, `"nic" only applies`},
		{"bad resource", `{"events": [{"kind": "link-down", "start": 0, "duration": 1, "resources": [99999]}]}`, "event 0"},
		{"second event bad", `{"events": [{"kind": "link-down", "start": 0, "duration": 1, "resources": [0]}, {"kind": "link-down", "start": -1, "duration": 1, "resources": [0]}]}`, "event 1"},
	}
	for _, tc := range cases {
		_, err := ParseSchedule([]byte(tc.spec), tp)
		if err == nil {
			t.Errorf("%s: spec unexpectedly parsed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
