package opt

import (
	"context"
	"sync"
	"testing"
)

// TestOptimizerConcurrentUse is the regression test for the
// PlansConsidered data race: one optimizer planning queries from many
// goroutines used to mutate the exported counter field concurrently.
// Run under -race this fails against the pre-fix code.
func TestOptimizerConcurrentUse(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()

	// Establish the serial reference plan and enumeration count.
	ref, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantPlans := f.opt.PlansConsidered()
	if wantPlans == 0 {
		t.Fatal("serial call considered no plans")
	}

	const goroutines = 8
	fps := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				p, err := f.opt.OptimizeCtx(context.Background(), q)
				if err != nil {
					errs[g] = err
					return
				}
				fps[g] = p.Fingerprint()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// Planning is deterministic: every goroutine finds the serial plan.
	for g, fp := range fps {
		if fp != ref.Fingerprint() {
			t.Errorf("goroutine %d found plan %s, serial %s", g, fp, ref.Fingerprint())
		}
	}
	// The published count is one coherent per-call total, not a torn
	// interleaving of several calls' increments.
	if got := f.opt.PlansConsidered(); got != wantPlans {
		t.Errorf("PlansConsidered after concurrent calls = %d, serial call = %d", got, wantPlans)
	}
}
