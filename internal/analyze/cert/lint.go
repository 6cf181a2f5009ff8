package cert

import (
	"fmt"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

// The budget lints themselves live in internal/analyze (they are fully
// static and need no simulator); cert wraps them so certification call
// sites deal with one package.

// CodeGap fires when the certified optimality gap exceeds the
// configured threshold.
const CodeGap = "cert-gap"

// BudgetLints statically checks the plan against the budget — no
// simulation — and returns SevWarn diagnostics for violations. The
// callers that act on budget lints (the tune sweep, the replan gate,
// `ressclc -vet`, serve analyze) call it at their own buffer size.
func BudgetLints(k *kernel.Kernel, tp *topo.Topology, opts Options) []analyze.Diag {
	opts = opts.withDefaults()
	return analyze.BudgetLints(k, tp, opts.BufferBytes, opts.ChunkBytes, opts.Budget)
}

// GapLint checks a certificate against a gap threshold (percent) and
// returns a SevWarn diagnostic when exceeded, or nil. A non-positive
// threshold disables the check.
func GapLint(c *Certificate, maxGapPct float64) []analyze.Diag {
	if c == nil || maxGapPct <= 0 || c.GapPct <= maxGapPct {
		return nil
	}
	return []analyze.Diag{{Code: CodeGap, Severity: analyze.SevWarn,
		Message: fmt.Sprintf(
			"optimality gap %.2f%% exceeds the %.2f%% threshold (completion %.3fµs vs α–β lower bound %.3fµs)",
			c.GapPct, maxGapPct, c.CompletionUS, c.LowerBoundUS)}}
}
