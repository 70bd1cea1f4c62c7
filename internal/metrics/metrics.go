// Package metrics provides the evaluation metrics shared across the
// workbench: q-error, quantile summaries, geometric means and rank
// correlation.
package metrics

import (
	"math"
	"sort"
)

// MaxQError is the defined worst-case q-error. Non-finite estimates
// (NaN, ±Inf) carry no usable information and are scored at this value;
// finite q-errors are also capped here so a single broken estimate can
// never push GeoMean or Summarize to NaN/Inf and poison a whole table.
const MaxQError = 1e12

// QError is the standard cardinality-estimation error metric:
// max(est/true, true/est), with both sides floored at 1 tuple. A NaN or
// infinite estimate (or truth) scores MaxQError rather than propagating
// the non-finite value into downstream aggregates.
func QError(est, truth float64) float64 {
	if math.IsNaN(est) || math.IsInf(est, 0) || math.IsNaN(truth) || math.IsInf(truth, 0) {
		return MaxQError
	}
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	q := truth / est
	if est > truth {
		q = est / truth
	}
	if q > MaxQError {
		return MaxQError
	}
	return q
}

// MaxCard is the upper clamp for cardinality estimates entering the cost
// model. It is far above any reachable intermediate size but small enough
// that downstream cost arithmetic (products, logs) stays finite.
const MaxCard = 1e15

// ClampCard sanitizes a cardinality estimate before it reaches the cost
// model, mirroring the QError clamp: NaN and -Inf (no information) become
// 1, +Inf and absurdly large values cap at MaxCard, and non-positive
// estimates floor at 1 tuple — a learned estimator's wild outlier can
// skew plan choice but never poison cost arithmetic with non-finite
// values.
func ClampCard(est float64) float64 {
	if math.IsNaN(est) || math.IsInf(est, -1) || est <= 0 {
		return 1
	}
	if math.IsInf(est, 1) || est > MaxCard {
		return MaxCard
	}
	return est
}

// SanitizeCard is the optimizer's estimate sanitizer: NaN and negative
// estimates become 0, and +Inf and absurd magnitudes cap at MaxCard.
// Unlike ClampCard it keeps estimates in [0, 1) as they are, which the
// planner's plan choices are pinned to.
func SanitizeCard(est float64) float64 {
	if est < 0 || math.IsNaN(est) {
		return 0
	}
	if est > MaxCard {
		return MaxCard
	}
	return est
}

// Quantiles summarizes a sample at the 50th/90th/95th/99th percentiles
// plus the maximum. The input is not modified.
type Quantiles struct {
	P50, P90, P95, P99, Max float64
	Mean                    float64
	N                       int
}

// Summarize computes Quantiles over vals.
func Summarize(vals []float64) Quantiles {
	if len(vals) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := Quantiles{N: len(s), Max: s[len(s)-1]}
	// Linear interpolation between adjacent order statistics (the R-7 /
	// NumPy default). Truncating the rank instead biases P90/P95/P99 low
	// on small samples — e.g. on 10 points P99 would silently report the
	// 89th percentile.
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		frac := h - float64(lo)
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	q.P50, q.P90, q.P95, q.P99 = at(0.50), at(0.90), at(0.95), at(0.99)
	total := 0.0
	for _, v := range s {
		total += v
	}
	q.Mean = total / float64(len(s))
	return q
}

// GeoMean returns the geometric mean of vals (values floored at a tiny
// positive constant so zeros don't collapse the product).
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		if v < 1e-9 {
			v = 1e-9
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// SpearmanRho computes Spearman's rank correlation between two samples —
// the plan-cost/latency correlation metric used in cost-model studies.
func SpearmanRho(a, b []float64) float64 {
	n := len(a)
	if n < 2 || len(b) != n {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < n; i++ {
		sa += ra[i]
		sb += rb[i]
		saa += ra[i] * ra[i]
		sbb += rb[i] * rb[i]
		sab += ra[i] * rb[i]
	}
	fn := float64(n)
	cov := sab/fn - (sa/fn)*(sb/fn)
	va := saa/fn - (sa/fn)*(sa/fn)
	vb := sbb/fn - (sb/fn)*(sb/fn)
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func ranks(v []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	s := make([]iv, len(v))
	for i, x := range v {
		s[i] = iv{i, x}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	out := make([]float64, len(v))
	for r := 0; r < len(s); {
		// Average ranks over ties.
		e := r
		//lqolint:ignore floateq exact equality is the definition of a rank tie; both operands are unmodified input values, so no arithmetic error accumulates
		for e+1 < len(s) && s[e+1].v == s[r].v {
			e++
		}
		avg := float64(r+e) / 2
		for k := r; k <= e; k++ {
			out[s[k].i] = avg
		}
		r = e + 1
	}
	return out
}
