package obs

// Timeline is the simulated execution record of one collective: one
// track per thread block (slices are task instances), one track per
// communication link (rendered as an active-transfer counter, since
// flows on a shared link legitimately overlap), plus fault and replan
// lanes. All times are simulated seconds, so a timeline is deterministic
// for deterministic simulator inputs — the property the golden trace
// tests and the byte-identical -trace-out contract rely on.
type Timeline struct {
	// Name identifies the run ("ResCCL/HM-AllReduce" or "dp[3]/ring-16").
	Name string
	// Completion is the simulated makespan in seconds.
	Completion float64
	// TBs holds one track per thread block, ascending ID.
	TBs []TBTrack
	// Links holds one track per communication link that carried traffic,
	// ascending resource ID.
	Links []LinkTrack
	// Faults lists injected fault windows (empty for clean runs).
	Faults []FaultWindow
	// Replans lists plan-level recovery markers, each at the simulated
	// time its repair epoch started.
	Replans []Mark
}

// TBTrack is one thread block's activity.
type TBTrack struct {
	// ID and Rank locate the TB; Label describes its role ("0→1/send").
	ID    int
	Rank  int
	Label string
	// Slices are the TB's executed task instances in completion order.
	Slices []Slice
}

// Slice is one busy interval [Start, End) in simulated seconds.
type Slice struct {
	Name       string
	Start, End float64
}

// LinkTrack is one communication link's activity. Slices may overlap
// (max-min shared flows); the Chrome exporter renders the track as a
// counter of concurrently active transfers.
type LinkTrack struct {
	Name   string
	Slices []Slice
}

// FaultWindow is one injected fault's active window.
type FaultWindow struct {
	Kind       string
	Detail     string
	Start, End float64
}

// Mark is an instantaneous event on a lane.
type Mark struct {
	Name   string
	Detail string
	Time   float64
}
