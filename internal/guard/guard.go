// Package guard is the engine's guardrail runtime: the deployment layer
// the tutorial's Section 3 argues learned components need before a
// production system can adopt them. Learned planners and estimators
// regress, emit non-finite garbage, hang, and crash (Lehmann et al.;
// Wang et al.) — the guard layer converts every such failure into a
// degraded-but-available outcome:
//
//   - Safe turns panics in learned code into errors the host can route.
//   - Breaker is a Bao/Eraser-style circuit breaker that stops consulting
//     a component after repeated failures or observed plan regressions,
//     re-probing with exponential backoff.
//   - Planner wraps any learned optimizer with panic isolation, a
//     per-decision timeout and graceful fallback to the native volcano
//     optimizer: a broken learned component degrades service quality,
//     never availability.
//   - chaos.go injects deterministic faults so all of the above is
//     testable and benchmarkable (experiment E10).
package guard

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic converted to an error: the panic value
// plus the stack at recovery, attributed to the component that blew up.
type PanicError struct {
	Component string
	Value     any
	Stack     []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("guard: panic in %s: %v", p.Component, p.Value)
}

// Safe invokes fn, converting a panic into a *PanicError. It is the
// isolation boundary around every learned-component call (driver
// Init/Algo, learned Plan, estimator Estimate): a crash in model
// code must surface as an error the host can fall back from, never as a
// process abort.
func Safe(component string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Component: component, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
