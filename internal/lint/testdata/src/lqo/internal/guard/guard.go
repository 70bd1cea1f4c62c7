// Package guard is a golden-file stand-in for lqo/internal/guard: the
// wrapper signature the guardsafe analyzer recognizes, resolved through
// the testdata source root.
package guard

// Safe mirrors the real panic-isolating wrapper's signature.
func Safe(component string, fn func() error) error { return fn() }
