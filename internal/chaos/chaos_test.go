package chaos

import "testing"

// TestChaosSmoke is the CI chaos gate: a fixed-seed sweep asserting the
// recovery contract — every case either completes with the verifier
// passing or aborts with a typed error; no stalls, no silent corruption.
func TestChaosSmoke(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 80
	}
	rep := Run(Config{Seed: 42, Cases: cases})
	for _, f := range rep.Failures {
		t.Errorf("case %d (%s): %v", f.Case, f.Desc, f.Err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("%d of %d cases violated the recovery contract", len(rep.Failures), rep.Cases)
	}
	// The sweep must actually exercise the machinery, not just pass
	// vacuously: demand completions, replans and typed aborts all occur.
	if rep.Verified == 0 || rep.Replanned == 0 {
		t.Fatalf("sweep exercised too little: %+v", rep)
	}
	if rep.Partitioned+rep.Unrecoverable == 0 {
		t.Logf("note: no typed aborts in this sweep: %+v", rep)
	}
	t.Logf("chaos: %d cases — %d verified (%d replanned, %d degraded), %d partitioned, %d unrecoverable",
		rep.Cases, rep.Verified, rep.Replanned, rep.Degraded, rep.Partitioned, rep.Unrecoverable)
}

// TestChaosDeterministic: equal seeds must classify every case
// identically — the harness itself honours the repo's determinism bar.
func TestChaosDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Cases: 30}
	a, b := Run(cfg), Run(cfg)
	if a.Verified != b.Verified || a.Replanned != b.Replanned || a.Degraded != b.Degraded ||
		a.Partitioned != b.Partitioned || a.Unrecoverable != b.Unrecoverable ||
		len(a.Failures) != len(b.Failures) {
		t.Fatalf("reports differ across identical sweeps:\n%+v\nvs\n%+v", a, b)
	}
}
