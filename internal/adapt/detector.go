package adapt

import (
	"math"
	"sync"

	"lqo/internal/metrics"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// DetectorConfig tunes the drift detector. Zero values select defaults.
type DetectorConfig struct {
	// Baseline is how many observations establish the healthy-regime
	// reference after a rebase (default 64).
	Baseline int
	// Window is the sliding window of recent observations compared
	// against the baseline (default 64).
	Window int
	// Ratio flags staleness when the recent geometric-mean q-error
	// exceeds Ratio × the baseline's (default 2).
	Ratio float64
	// AbsQ flags staleness outright when the recent geometric-mean
	// q-error exceeds this bound, however bad the baseline already was
	// (default 32).
	AbsQ float64
	// TripLimit flags staleness when this many breaker trips are noted
	// since the last rebase — the "guardrails keep firing" signal that
	// complements the q-error channel (default 4; <= 0 disables).
	TripLimit int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Baseline <= 0 {
		c.Baseline = 64
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Ratio <= 1 {
		c.Ratio = 2
	}
	if c.AbsQ <= 1 {
		c.AbsQ = 32
	}
	if c.TripLimit == 0 {
		c.TripLimit = 4
	}
	return c
}

// Detector is a windowed drift monitor over serving-layer execution
// feedback. It accumulates per-sub-plan q-errors (estimate vs. execution
// truth): the first Baseline observations after a rebase freeze the
// healthy reference, and a sliding Window of recent observations is
// compared against it with a deterministic threshold test — everything is
// observation-counted, no wall clock and no randomness, so the same
// traffic always flags at the same point (lqolint determinism-clean by
// construction). Safe for concurrent use.
type Detector struct {
	cfg DetectorConfig

	mu      sync.Mutex
	base    []float64 // log q-errors of the baseline regime
	baseSum float64
	recent  []float64 // ring of recent log q-errors
	idx     int       // next ring slot
	n       int       // filled ring slots
	sum     float64   // sum of filled ring slots
	obs     int64     // observations since rebase
	trips   int64     // breaker trips noted since rebase
}

// NewDetector returns a detector with cfg (zero fields take defaults).
func NewDetector(cfg DetectorConfig) *Detector {
	c := cfg.withDefaults()
	return &Detector{cfg: c, recent: make([]float64, c.Window)}
}

// Observe records one sub-plan q-error (>= 1; non-finite values are
// clamped like metrics.QError does).
func (d *Detector) Observe(qerr float64) {
	if math.IsNaN(qerr) || math.IsInf(qerr, 0) || qerr > metrics.MaxQError {
		qerr = metrics.MaxQError
	}
	if qerr < 1 {
		qerr = 1
	}
	lg := math.Log(qerr)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs++
	if len(d.base) < d.cfg.Baseline {
		d.base = append(d.base, lg)
		d.baseSum += lg
		return
	}
	if d.n == len(d.recent) {
		d.sum -= d.recent[d.idx]
	} else {
		d.n++
	}
	d.recent[d.idx] = lg
	d.sum += lg
	d.idx = (d.idx + 1) % len(d.recent)
}

// ObservePlan records every node of an executed, TrueCard-annotated
// plan: the q-error of the estimate the plan was built with against what
// execution actually produced (a sharded scan is one Merge leaf). This is the serving-layer feed — wire it
// behind serve.Server's ExecObserver hook.
func (d *Detector) ObservePlan(q *query.Query, executed *plan.Node) {
	executed.Walk(func(n *plan.Node) {
		d.Observe(metrics.QError(n.EstCard, n.TrueCard))
	})
}

// NoteTrip records a guard breaker trip (the second drift channel).
func (d *Detector) NoteTrip() {
	d.mu.Lock()
	d.trips++
	d.mu.Unlock()
}

// BaselineGeoQ returns the baseline's geometric-mean q-error (1 while the
// baseline is still filling).
func (d *Detector) BaselineGeoQ() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.baselineGeoLocked()
}

func (d *Detector) baselineGeoLocked() float64 {
	if len(d.base) == 0 {
		return 1
	}
	return math.Exp(d.baseSum / float64(len(d.base)))
}

// RecentGeoQ returns the sliding window's geometric-mean q-error (1 while
// empty).
func (d *Detector) RecentGeoQ() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recentGeoLocked()
}

func (d *Detector) recentGeoLocked() float64 {
	if d.n == 0 {
		return 1
	}
	return math.Exp(d.sum / float64(d.n))
}

// Stale reports whether the estimator behind the observed plans looks
// drifted: both windows are full AND (recent geo q-error exceeds Ratio ×
// baseline, OR exceeds AbsQ outright), or the breaker-trip channel fired.
// Deterministic in the observation sequence.
func (d *Detector) Stale() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.TripLimit > 0 && d.trips >= int64(d.cfg.TripLimit) {
		return true
	}
	if len(d.base) < d.cfg.Baseline || d.n < len(d.recent) {
		return false
	}
	rg := d.recentGeoLocked()
	return rg > d.cfg.Ratio*d.baselineGeoLocked() || rg > d.cfg.AbsQ
}

// Rebase discards both windows and the trip count: the next Baseline
// observations define the new healthy regime. Called after an accepted
// hot-swap — the new model's behavior is the new normal.
func (d *Detector) Rebase() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.base = d.base[:0]
	d.baseSum = 0
	d.n, d.idx, d.sum = 0, 0, 0
	d.obs = 0
	d.trips = 0
}

// DetectorSnapshot is a point-in-time view of the detector.
type DetectorSnapshot struct {
	Observations int64   // observations since the last rebase
	Trips        int64   // breaker trips noted since the last rebase
	BaselineGeoQ float64 // geometric-mean q-error of the baseline window
	RecentGeoQ   float64 // geometric-mean q-error of the sliding window
	BaselineFull bool
	RecentFull   bool
	Stale        bool
}

// Snapshot returns the detector's current state atomically.
func (d *Detector) Snapshot() DetectorSnapshot {
	d.mu.Lock()
	baseFull := len(d.base) >= d.cfg.Baseline
	recentFull := d.n >= len(d.recent)
	snap := DetectorSnapshot{
		Observations: d.obs,
		Trips:        d.trips,
		BaselineGeoQ: d.baselineGeoLocked(),
		RecentGeoQ:   d.recentGeoLocked(),
		BaselineFull: baseFull,
		RecentFull:   recentFull,
	}
	d.mu.Unlock()
	snap.Stale = d.Stale()
	return snap
}
