// Package metrics is a golden-file stand-in for lqo/internal/metrics:
// just enough surface for fixtures to exercise the analyzers' sanitizer
// recognition (analyzers match package paths by suffix, so this fake,
// resolved through the testdata source root, is indistinguishable from
// the real package).
package metrics

// MaxCard mirrors the real upper clamp.
const MaxCard = 1e15

// ClampCard mirrors the real sanitizer's signature and contract.
func ClampCard(est float64) float64 {
	if est != est || est < 1 { // NaN or sub-row estimates floor at 1
		return 1
	}
	if est > MaxCard {
		return MaxCard
	}
	return est
}

// SanitizeCard mirrors the real optimizer sanitizer's signature and
// contract.
func SanitizeCard(est float64) float64 {
	if est != est || est < 0 { // NaN or negative estimates become 0
		return 0
	}
	if est > MaxCard {
		return MaxCard
	}
	return est
}
