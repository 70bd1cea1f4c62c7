package adapt

import (
	"math"
	"sync"

	"lqo/internal/metrics"
	"lqo/internal/plan"
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
	return c
}

// Detector is a windowed drift monitor over serving-layer execution
// feedback. It accumulates per-sub-plan q-errors (a plan's estimates vs.
// a run's record of the truth, never the plan's own TrueCard, so the plan
// may be shared): the first Baseline observations after a rebase freeze the
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

// ObservePlan records every node of a run of plan p: the q-error of the
// estimate the plan was built with against what execution actually
// produced, cards[i] for p's i-th node in pre-order (exec.Result.Cards;
// a sharded scan is one Merge leaf). p is only read. This is the
// serving-layer feed — wire it behind serve.Server's ExecObserver hook.
func (d *Detector) ObservePlan(p *plan.Node, cards []float64) {
	i := 0
	p.Walk(func(n *plan.Node) {
		d.Observe(metrics.QError(n.EstCard, cards[i]))
		i++
	})
}

// baselineGeoLocked returns the baseline's geometric-mean q-error (1
// while the baseline is still filling).
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
// baseline, OR exceeds AbsQ outright). Deterministic in the observation
// sequence.
func (d *Detector) Stale() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.base) < d.cfg.Baseline || d.n < len(d.recent) {
		return false
	}
	rg := d.recentGeoLocked()
	return rg > d.cfg.Ratio*d.baselineGeoLocked() || rg > d.cfg.AbsQ
}

// Rebase discards both windows: the next Baseline observations define
// the new healthy regime. Called after an accepted hot-swap — the new
// model's behavior is the new normal.
func (d *Detector) Rebase() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.base = d.base[:0]
	d.baseSum = 0
	d.n, d.idx, d.sum = 0, 0, 0
	d.obs = 0
}

// DetectorSnapshot is a point-in-time view of the detector.
type DetectorSnapshot struct {
	Observations int64   // observations since the last rebase
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
		BaselineGeoQ: d.baselineGeoLocked(),
		RecentGeoQ:   d.recentGeoLocked(),
		BaselineFull: baseFull,
		RecentFull:   recentFull,
	}
	d.mu.Unlock()
	snap.Stale = d.Stale()
	return snap
}
