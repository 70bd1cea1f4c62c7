package guard

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"lqo/internal/learnedopt"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// Fault enumerates the failure modes the chaos harness can inject —
// exactly the misbehaviors the robustness literature observes in learned
// components: wild estimates (NaN/Inf/zero/huge), hangs past the
// deadline, errors, and panics.
type Fault int

// Injectable faults.
const (
	FaultNone Fault = iota
	FaultNaN
	FaultInf
	FaultZero
	FaultHuge
	FaultError
	FaultPanic
	FaultHang
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultNaN:
		return "nan"
	case FaultInf:
		return "inf"
	case FaultZero:
		return "zero"
	case FaultHuge:
		return "huge"
	case FaultError:
		return "error"
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// ChaosConfig tunes an Injector.
type ChaosConfig struct {
	// Rate is the per-call fault probability in [0,1].
	Rate float64
	// Seed makes the fault sequence deterministic: same seed, same
	// workload order, same faults.
	Seed int64
	// Hang is how long a FaultHang stalls. It is finite by design: a
	// chaos hang outlives any reasonable per-query deadline (provoking
	// the timeout path) but eventually returns, so watchdog goroutines
	// are joined rather than leaked. Default 50ms.
	Hang time.Duration
}

// Injector decides, per call, whether to inject a fault and which one.
// It is safe for concurrent use; the decision stream is deterministic
// for a fixed seed and call order.
type Injector struct {
	cfg ChaosConfig
	mu  sync.Mutex
	rng *rand.Rand
}

// NewInjector returns an injector for cfg.
func NewInjector(cfg ChaosConfig) *Injector {
	if cfg.Hang <= 0 {
		cfg.Hang = 50 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// next draws a fault from the menu, or FaultNone with probability 1-Rate.
func (in *Injector) next(menu []Fault) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Rate <= 0 || in.rng.Float64() >= in.cfg.Rate {
		return FaultNone
	}
	return menu[in.rng.Intn(len(menu))]
}

// estimatorFaults is the menu for cardinality estimators: garbage values
// plus crash/stall (an estimator returns a float, so "error" is not in
// its vocabulary — a panic is).
var estimatorFaults = []Fault{FaultNaN, FaultInf, FaultZero, FaultHuge, FaultPanic, FaultHang}

// ChaosEstimator wraps a cardinality estimator with fault injection.
type ChaosEstimator struct {
	Base opt.CardEstimator
	In   *Injector
}

// Estimate implements opt.CardEstimator, possibly injecting a fault.
func (c *ChaosEstimator) Estimate(q *query.Query) float64 {
	switch c.In.next(estimatorFaults) {
	case FaultNaN:
		return math.NaN()
	case FaultInf:
		return math.Inf(1)
	case FaultZero:
		return 0
	case FaultHuge:
		return 1e30
	case FaultPanic:
		panic("chaos: injected estimator panic")
	case FaultHang:
		time.Sleep(c.In.cfg.Hang)
		return c.Base.Estimate(q)
	default:
		return c.Base.Estimate(q)
	}
}

// plannerFaults is the menu for learned planners: hard failures only —
// garbage plans are covered by the estimator menu upstream of planning.
var plannerFaults = []Fault{FaultError, FaultPanic, FaultHang}

// ChaosPlanner wraps a learned optimizer with fault injection on Plan.
// Train and Name pass through untouched.
type ChaosPlanner struct {
	Base learnedopt.Optimizer
	In   *Injector
}

// Name implements learnedopt.Optimizer.
func (c *ChaosPlanner) Name() string { return "chaos(" + c.Base.Name() + ")" }

// Train implements learnedopt.Optimizer.
func (c *ChaosPlanner) Train(ctx *learnedopt.Context) error { return c.Base.Train(ctx) }

// Plan implements learnedopt.Optimizer, possibly erroring, panicking or
// hanging instead of planning.
func (c *ChaosPlanner) Plan(q *query.Query) (*plan.Node, error) {
	switch c.In.next(plannerFaults) {
	case FaultError:
		return nil, fmt.Errorf("chaos: injected planner error")
	case FaultPanic:
		panic("chaos: injected planner panic")
	case FaultHang:
		time.Sleep(c.In.cfg.Hang)
		return c.Base.Plan(q)
	default:
		return c.Base.Plan(q)
	}
}
