package resccl

import (
	"errors"

	"github.com/resccl/resccl/internal/rt"
)

// Sentinel errors returned by the public API. Wrapped errors carry
// context (the offending value, the operator); match with errors.Is.
var (
	// ErrNilTopology is returned by NewCommunicator for a nil topology.
	ErrNilTopology = errors.New("resccl: nil topology")
	// ErrInvalidBuffer is returned when a collective is invoked with a
	// non-positive buffer size.
	ErrInvalidBuffer = errors.New("resccl: buffer size must be positive")
	// ErrUnknownBackend is returned for a BackendKind outside the
	// declared constants.
	ErrUnknownBackend = errors.New("resccl: unknown backend")
	// ErrUnknownAlgorithm is returned by BuildAlgorithm for a name not in
	// the registry, and by default algorithm selection for an operator
	// with no default.
	ErrUnknownAlgorithm = errors.New("resccl: unknown algorithm")
	// ErrDispatchTable is returned when a dispatch table cannot serve
	// the communicator: it was tuned for a different topology, or an
	// entry is inconsistent with the communicator's shape.
	ErrDispatchTable = errors.New("resccl: dispatch table mismatch")
)

// Runtime execution errors, re-exported so callers can classify
// ExecuteAlgorithm failures without importing internal packages.
var (
	// ErrDeadlock reports that the data-plane runtime detected a cyclic
	// wait between thread blocks, or that a simulated run stalled.
	ErrDeadlock = rt.ErrDeadlock
	// ErrPartitioned reports that injected faults disconnected the
	// surviving ranks, making recovery impossible.
	ErrPartitioned = rt.ErrPartitioned
	// ErrUnrecoverable reports that plan-level recovery could not repair
	// the collective after faults.
	ErrUnrecoverable = rt.ErrUnrecoverable
)
