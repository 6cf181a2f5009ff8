package resccl

import (
	"errors"

	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/replan"
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

// Execution errors, re-exported so callers can classify failures
// without importing internal packages.
var (
	// ErrDeadlock reports that a simulated run stalled: thread blocks
	// waiting on each other, or no progress within the event budget.
	ErrDeadlock = kernel.ErrDeadlock
	// ErrPartitioned reports that injected faults disconnected the
	// surviving ranks, making recovery impossible.
	ErrPartitioned = replan.ErrPartitioned
	// ErrUnrecoverable reports that plan-level recovery could not repair
	// the collective after faults.
	ErrUnrecoverable = replan.ErrUnrecoverable
)
