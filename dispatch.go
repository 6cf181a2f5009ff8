package resccl

import (
	"context"
	"errors"
	"fmt"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/tune"
)

// DispatchTable maps (operator, message size) to the fastest measured
// (algorithm, protocol) pair for one topology. Tables come from the
// autotuning sweep — Communicator.Tune, `ressclc -tune`, or a
// previously saved table via LoadDispatchTable — and are applied with
// WithDispatchTable (or implicitly with WithAutotune), after which the
// operator-level calls (AllReduce, AllGather, …) automatically run the
// winning algorithm and protocol tier for each call's size.
type DispatchTable struct {
	t *tune.Table
}

// LoadDispatchTable parses and validates a dispatch table previously
// serialized with MarshalJSON (for example one written by
// `ressclc -tune`).
func LoadDispatchTable(data []byte) (*DispatchTable, error) {
	t, err := tune.Load(data)
	if err != nil {
		return nil, err
	}
	return &DispatchTable{t: t}, nil
}

// MarshalJSON renders the table as deterministic, indented JSON: the
// same topology, sweep options and seed always produce byte-identical
// output, so regenerated tables diff cleanly and round-trip through
// LoadDispatchTable.
func (d *DispatchTable) MarshalJSON() ([]byte, error) { return d.t.MarshalJSON() }

// Topology describes the fabric the table was tuned for. Communicators
// over a different topology refuse the table.
func (d *DispatchTable) Topology() string { return d.t.Topology }

// Hash digests the table's full content. It is folded into the
// plan-cache fingerprint of every dispatched run, so plans selected by
// different table generations never collide in the cache.
func (d *DispatchTable) Hash() string { return d.t.Hash() }

// Tune runs the full autotuning sweep on the communicator's topology
// and returns the resulting dispatch table: every registered algorithm
// plus the sketch synthesizer's verified candidates, measured across
// the default size grid under every protocol tier by the deterministic
// simulator. The sweep runs once per communicator; WithAutotune and
// repeated Tune calls share the cached result. Sweeps always measure
// ResCCL-backend plans — the table drives algorithm selection for this
// library's own backend, not the baseline emulations.
func (c *Communicator) Tune() (*DispatchTable, error) {
	t, err := c.autotuned()
	if err != nil {
		return nil, err
	}
	return &DispatchTable{t: t}, nil
}

// autotuned lazily runs the sweep, caching table and error alike.
func (c *Communicator) autotuned() (*tune.Table, error) {
	c.tuneOnce.Do(func() {
		res, err := tune.Sweep(context.Background(), c.topo, tune.Options{Parallel: true})
		if err != nil {
			c.tuneErr = fmt.Errorf("resccl: autotune: %w", err)
			return
		}
		c.tuned = res.Table
	})
	return c.tuned, c.tuneErr
}

// dispatchTable resolves the effective table for one call: an explicit
// WithDispatchTable table (checked against the communicator's
// topology), the lazily autotuned table under WithAutotune, or nil when
// the call dispatches by the built-in defaults.
func (c *Communicator) dispatchTable(s *runSettings) (*tune.Table, error) {
	if s.dispatch != nil {
		if s.dispatch.Topology != c.shape {
			return nil, fmt.Errorf("%w: table tuned for %q, communicator runs %q",
				ErrDispatchTable, s.dispatch.Topology, c.shape)
		}
		return s.dispatch, nil
	}
	if s.dispatchAuto {
		return c.autotuned()
	}
	return nil, nil
}

// named returns the algorithm a registry or sketch name builds on the
// communicator's shape, building it on first use only. A sketch plan of
// another shape is a dispatch-table mismatch, refused before it builds.
func (c *Communicator) named(name string) (*Algorithm, error) {
	c.algoMu.Lock()
	defer c.algoMu.Unlock()
	if algo, ok := c.algos[name]; ok {
		return algo, nil
	}
	algo, err := expert.BuildOn(name, c.topo.NNodes, c.topo.GPUsPerNode)
	switch {
	case errors.Is(err, expert.ErrUnknown):
		return nil, fmt.Errorf("%w: %v", ErrUnknownAlgorithm, err)
	case errors.Is(err, expert.ErrShape):
		return nil, fmt.Errorf("%w: %v", ErrDispatchTable, err)
	case err != nil:
		return nil, err
	}
	if c.algos == nil {
		c.algos = make(map[string]*Algorithm)
	}
	c.algos[name] = algo
	return algo, nil
}

// dispatch applies a table entry to the call settings and returns the
// selected algorithm. A forced WithProtocol still wins over the table's
// tier — the same precedence WithProtocol has over the backend's
// size-based auto-selection.
func (c *Communicator) dispatch(table *tune.Table, e tune.Entry, s *runSettings) (*Algorithm, error) {
	algo, err := c.named(e.Algorithm)
	if err != nil {
		return nil, err
	}
	if !s.protocol.Forced() {
		p, err := ir.ParseProtocol(e.Protocol)
		if err != nil {
			return nil, fmt.Errorf("%w: entry for %s: %v", ErrDispatchTable, e.Op, err)
		}
		s.protocol = p
	}
	s.TuneHash = table.Hash()
	s.memoName = e.Algorithm
	return algo, nil
}
