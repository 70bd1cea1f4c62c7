// Package cardclamp_a is the golden file for the cardclamp analyzer.
package cardclamp_a

import (
	"math"

	"lqo/internal/metrics"
)

// Est mimics a cardinality estimator: the analyzer keys on the
// Estimate* name prefix and the single-float64 result.
type Est struct{}

func (Est) Estimate(n int) float64 { return float64(n) }

func BadVar(e Est) float64 {
	c := e.Estimate(1)
	return c * 2 // want `holds an unclamped estimate`
}

func BadDirect(e Est) float64 {
	return e.Estimate(2) + 1 // want `raw estimator output used in card math`
}

func BadMath(e Est) float64 {
	c := e.Estimate(3)
	return math.Log1p(c) // want `holds an unclamped estimate`
}

func BadCompare(e Est) bool {
	c := e.Estimate(4)
	return c > 100 // want `holds an unclamped estimate`
}

func BadOpAssign(e Est, f float64) float64 {
	c := e.Estimate(5)
	c *= f // want `holds an unclamped estimate`
	return c
}

func BadOpAssignRaw(e Est, c float64) float64 {
	c /= e.Estimate(6) // want `raw estimator output used in card math`
	return c
}

func GoodOpAssign(e Est, f float64) float64 {
	c := metrics.ClampCard(e.Estimate(7)) // true negative: sanitized at birth
	c *= f
	return c
}

func GoodWrapped(e Est) float64 {
	c := metrics.ClampCard(e.Estimate(1)) // true negative: sanitized at birth
	return c * 2
}

func GoodRebound(e Est) float64 {
	c := e.Estimate(1)
	c = metrics.ClampCard(c) // true negative: a sanitizing use, then clean
	return c + 1
}

func GoodSanitized(e Est) float64 {
	c := e.Estimate(1)
	c = metrics.SanitizeCard(c) // true negative: the optimizer's sanitizer clears it too
	return c + 1
}

func GoodPredicate(e Est) bool {
	c := e.Estimate(1)
	return math.IsNaN(c) // true negative: classification, not card math
}
