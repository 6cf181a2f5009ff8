// Package tune is the per-call autotuner: it sweeps (operator, message
// size, protocol tier) over every registered and synthesized algorithm
// on a topology, scores each point with the deterministic flow
// simulator, and emits a dispatch table the Communicator consults so
// each collective call automatically runs the winning algorithm and
// protocol for its size — the paper's small-buffer crossovers as
// discovered behavior rather than hardcoded selection.
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// Version is the dispatch-table format version this package writes.
// Version 2 added the per-entry resource-efficiency certificate fields
// (gap_pct, cert_hash); version-1 tables still load, with those fields
// zero.
const Version = 2

// Entry is one dispatch decision: for Op at message sizes up to
// MaxBytes, run Algorithm under Protocol. Entries for one operator form
// ascending size buckets; the last bucket is unbounded (MaxBytes 0).
type Entry struct {
	// Op is the collective operator (ir.OpType spelling, e.g.
	// "Allreduce").
	Op string `json:"op"`
	// MaxBytes is the bucket's inclusive upper bound; 0 means unbounded.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// Algorithm names the winner: an expert-registry key
	// ("hm-allreduce") or an encoded synthesized plan
	// ("synth:sketch/..."). Either rebuilds by name alone.
	Algorithm string `json:"algorithm"`
	// Protocol is the winning transport tier ("LL", "LL128", "Simple").
	Protocol string `json:"protocol"`
	// ProbeBytes is the swept message size that decided this bucket and
	// CompletionUS the winner's simulated wall time there.
	ProbeBytes   int64   `json:"probe_bytes"`
	CompletionUS float64 `json:"completion_us"`
	// GapPct is the winner's certified optimality gap at the probe
	// point — 100·(completion/α–β lower bound − 1) — and CertHash the
	// sha256 of its full resource-efficiency certificate
	// (tune.Result.Certs carries the certificates themselves).
	GapPct   float64 `json:"gap_pct"`
	CertHash string  `json:"cert_hash,omitempty"`
}

// Table is a deterministic dispatch table for one topology. Tables
// serialize to stable JSON: same sweep inputs and seed produce
// byte-identical bytes, so regenerated tables diff cleanly.
type Table struct {
	Version int `json:"version"`
	// Topology is the shape the table was tuned for
	// (topo.Topology.String()); the Communicator refuses tables tuned
	// for a different fabric.
	Topology string  `json:"topology"`
	Seed     int64   `json:"seed"`
	Entries  []Entry `json:"entries"`

	// hash caches Hash for the tables Load and Sweep produce, which are
	// not modified afterwards.
	hash string
}

// MarshalJSON renders the table as indented, field-ordered JSON —
// deterministic bytes suitable for golden files and re-tune diffs.
func (t *Table) MarshalJSON() ([]byte, error) {
	type wire Table
	return json.MarshalIndent((*wire)(t), "", "  ")
}

// Load parses and validates a dispatch table produced by MarshalJSON
// (or written by hand in the same schema).
func Load(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tune: parse dispatch table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.hash = t.digest()
	return &t, nil
}

// Validate checks the table's structural invariants.
func (t *Table) Validate() error {
	if t.Version <= 0 || t.Version > Version {
		return fmt.Errorf("tune: unsupported dispatch-table version %d (this build reads ≤ %d)", t.Version, Version)
	}
	if len(t.Entries) == 0 {
		return fmt.Errorf("tune: dispatch table has no entries")
	}
	prev := map[string]*Entry{}
	for i := range t.Entries {
		e := &t.Entries[i]
		if _, err := ir.ParseOpType(e.Op); err != nil {
			return fmt.Errorf("tune: entry %d: %w", i, err)
		}
		if e.Algorithm == "" {
			return fmt.Errorf("tune: entry %d (%s): empty algorithm", i, e.Op)
		}
		if p, err := ir.ParseProtocol(e.Protocol); err != nil {
			return fmt.Errorf("tune: entry %d (%s): %w", i, e.Op, err)
		} else if !p.Forced() {
			return fmt.Errorf("tune: entry %d (%s): protocol must name a concrete tier, got %q", i, e.Op, e.Protocol)
		}
		if e.MaxBytes < 0 {
			return fmt.Errorf("tune: entry %d (%s): negative max_bytes", i, e.Op)
		}
		if e.GapPct < 0 {
			return fmt.Errorf("tune: entry %d (%s): negative optimality gap %.2f%%", i, e.Op, e.GapPct)
		}
		if p := prev[e.Op]; p != nil {
			if p.MaxBytes == 0 {
				return fmt.Errorf("tune: entry %d (%s): bucket after the unbounded bucket", i, e.Op)
			}
			if e.MaxBytes != 0 && e.MaxBytes <= p.MaxBytes {
				return fmt.Errorf("tune: entry %d (%s): buckets not ascending (%d after %d)", i, e.Op, e.MaxBytes, p.MaxBytes)
			}
		}
		prev[e.Op] = e
	}
	return nil
}

// Lookup returns the dispatch decision for (op, bytes), or ok=false
// when the table has no bucket covering the operator.
func (t *Table) Lookup(op ir.OpType, bytes int64) (Entry, bool) {
	var last *Entry
	for i := range t.Entries {
		e := &t.Entries[i]
		got, err := ir.ParseOpType(e.Op)
		if err != nil || got != op {
			continue
		}
		if e.MaxBytes == 0 || bytes <= e.MaxBytes {
			return *e, true
		}
		last = e
	}
	// Sizes beyond the last bounded bucket fall through to it only when
	// no unbounded bucket exists (a hand-trimmed table); normal sweeps
	// always end unbounded.
	if last != nil {
		return *last, true
	}
	return Entry{}, false
}

// Hash returns a hex digest of the table's full content. The
// Communicator folds it into the plan-cache fingerprint so plans chosen
// by different table generations never collide in the cache. Tables
// from Load and Sweep return the digest computed when they were
// produced, so they must not be modified; a table built by hand is
// digested on every call.
func (t *Table) Hash() string {
	if t.hash != "" {
		return t.hash
	}
	return t.digest()
}

func (t *Table) digest() string {
	type wire Table
	canonical, err := json.Marshal((*wire)(t))
	if err != nil {
		// A Table of plain values cannot fail to marshal; keep the
		// signature ergonomic.
		panic(err)
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}
