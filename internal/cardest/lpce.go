package cardest

import (
	"math"
	"slices"

	"lqo/internal/query"
)

// LPCE [59] pairs an initial estimator with a refinement step driven by
// query re-optimization: as operators of a running plan complete, their
// *actual* cardinalities become known, and the estimates of the remaining
// (super-)queries are corrected by the observed error of their executed
// sub-queries.
//
// The workbench realizes the refinement model as ratio propagation: if an
// executed sub-query's true cardinality differs from its estimate by
// factor r, every pending estimate containing that sub-query is scaled by
// r^Damping. The initial model is pluggable (GBDT by default).
type LPCE struct {
	// Initial is the before-execution model (default: GBDT).
	Initial Estimator
	// Damping in (0, 1] tempers the propagated correction (default 0.8).
	Damping float64

	observed map[string]lpceObs // sub-query key → its correction
}

// lpceObs is one executed sub-query's correction: its true/est ratio and
// its aliases, the set a containing query must cover.
type lpceObs struct {
	ratio   float64
	aliases []string
}

// NewLPCE returns an LPCE wrapper around the default initial model.
func NewLPCE() *LPCE {
	return &LPCE{Initial: NewGBDTEstimator(), Damping: 0.8}
}

// Name implements Estimator.
func (e *LPCE) Name() string { return "lpce" }

// Train trains the initial model and clears feedback.
func (e *LPCE) Train(ctx *Context) error {
	e.observed = make(map[string]lpceObs)
	return e.Initial.Train(ctx)
}

// Observe records the true cardinality of an executed sub-query; later
// estimates of queries containing it are refined.
func (e *LPCE) Observe(sub *query.Query, trueCard float64) {
	est := e.Initial.Estimate(sub)
	if est <= 0 {
		est = 1
	}
	if trueCard <= 0 {
		trueCard = 0.5 // avoid zero ratios; "almost empty" is still a signal
	}
	e.observed[sub.Key()] = lpceObs{ratio: trueCard / est, aliases: sub.Aliases()}
}

// Reset clears execution feedback (call between queries).
func (e *LPCE) Reset() {
	e.observed = make(map[string]lpceObs)
}

// Estimate refines the initial estimate with the strongest applicable
// observed correction: the ratio of the largest observed proper
// sub-query whose aliases are all contained in q (ties broken by the
// smaller key, so the choice does not depend on map order).
func (e *LPCE) Estimate(q *query.Query) float64 {
	base := e.Initial.Estimate(q)
	if len(e.observed) == 0 {
		return base
	}
	// Exact match: the true cardinality is known.
	if o, ok := e.observed[q.Key()]; ok {
		return base * o.ratio
	}
	bestKey, bestSize, bestRatio := "", 0, 1.0
	for key, o := range e.observed {
		sz := len(o.aliases)
		if sz < bestSize || (sz == bestSize && key > bestKey) || sz >= len(q.Refs) {
			continue
		}
		if slices.ContainsFunc(o.aliases, func(a string) bool { return q.TableOf(a) == "" }) {
			continue // the sub-query reads an alias q does not have
		}
		bestKey, bestSize, bestRatio = key, sz, o.ratio
	}
	if bestSize == 0 {
		return base
	}
	return base * powDamped(bestRatio, e.Damping)
}

func powDamped(r, d float64) float64 {
	if r <= 0 {
		return 1
	}
	return math.Pow(r, d)
}
