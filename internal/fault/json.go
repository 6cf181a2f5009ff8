package fault

// JSON fault specs: hand-written schedules loaded by ressclsim's
// -fault-spec flag, complementing the seeded random generator. The
// format mirrors Event field-for-field with two conveniences: NIC flaps
// may name the NIC ("nic": 1) instead of its two queue resources, and
// permanent events (link-out, rank-out) omit "duration" — their window
// is [start, ∞), which JSON cannot spell. See docs/faults.md for the
// full format and an example spec.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// ParseKind converts a JSON kind name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "link-degrade":
		return KindLinkDegrade, nil
	case "link-down":
		return KindLinkDown, nil
	case "nic-flap":
		return KindNICFlap, nil
	case "straggler":
		return KindStraggler, nil
	case "link-out":
		return KindLinkOut, nil
	case "rank-out":
		return KindRankOut, nil
	}
	return 0, fmt.Errorf("unknown kind %q (known: link-degrade, link-down, nic-flap, straggler, link-out, rank-out)", s)
}

// jsonEvent is the wire form of one event. Pointer fields distinguish
// "absent" from zero so misuse errors can be precise.
type jsonEvent struct {
	Kind      string            `json:"kind"`
	Start     float64           `json:"start"`
	Duration  float64           `json:"duration,omitempty"`
	Resources []topo.ResourceID `json:"resources,omitempty"`
	Factor    float64           `json:"factor,omitempty"`
	TB        *int              `json:"tb,omitempty"`
	NIC       *int              `json:"nic,omitempty"`
	Rank      *int              `json:"rank,omitempty"`
}

type jsonSchedule struct {
	Seed   int64       `json:"seed,omitempty"`
	Events []jsonEvent `json:"events"`
}

// ParseSchedule decodes a JSON fault spec and validates every event
// against the topology. A straggler's TB is checked against the kernel
// it runs with, by the simulator. Validation errors name the offending
// event by index and kind so a bad spec is actionable.
func ParseSchedule(data []byte, t *topo.Topology) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var js jsonSchedule
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("fault spec: %w", err)
	}
	if len(js.Events) == 0 {
		return nil, fmt.Errorf("fault spec: no events")
	}
	s := &Schedule{Seed: js.Seed}
	for i, je := range js.Events {
		e, err := je.toEvent(t)
		if err == nil {
			err = e.Validate(t, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("fault spec: event %d (kind %q): %w", i, je.Kind, err)
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}

func (je jsonEvent) toEvent(t *topo.Topology) (Event, error) {
	kind, err := ParseKind(je.Kind)
	if err != nil {
		return Event{}, err
	}
	e := Event{
		Kind: kind, Start: je.Start, Duration: je.Duration,
		Factor:    je.Factor,
		Resources: append([]topo.ResourceID(nil), je.Resources...),
	}
	if kind.Permanent() {
		if je.Duration != 0 {
			return Event{}, fmt.Errorf("permanent events take no duration (got %g); the window is [start, ∞)", je.Duration)
		}
		e.Duration = math.Inf(1)
	}
	switch {
	case je.TB != nil && kind != KindStraggler:
		return Event{}, fmt.Errorf("field \"tb\" only applies to stragglers")
	case je.TB == nil && kind == KindStraggler:
		return Event{}, fmt.Errorf("straggler requires field \"tb\"")
	case je.TB != nil:
		e.TB = *je.TB
	}
	switch {
	case je.NIC != nil && kind != KindNICFlap:
		return Event{}, fmt.Errorf("field \"nic\" only applies to nic-flap events")
	case je.NIC != nil:
		if *je.NIC < 0 || *je.NIC >= t.NNICs() {
			return Event{}, fmt.Errorf("nic %d outside [0, %d)", *je.NIC, t.NNICs())
		}
		eg, in := t.NICResources(*je.NIC)
		e.Resources = append(e.Resources, eg, in)
	}
	switch {
	case je.Rank != nil && kind != KindRankOut:
		return Event{}, fmt.Errorf("field \"rank\" only applies to rank-out events")
	case je.Rank == nil && kind == KindRankOut:
		return Event{}, fmt.Errorf("rank-out requires field \"rank\"")
	case je.Rank != nil:
		e.Rank = ir.Rank(*je.Rank)
	}
	return e, nil
}
