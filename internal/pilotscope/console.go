package pilotscope

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"lqo/internal/guard"
	"lqo/internal/query"
	"lqo/internal/sqlx"
)

// InjectionType declares which database component a driver replaces.
type InjectionType int

// Injection points.
const (
	// InjectCardinalities: the driver supplies sub-query cardinalities
	// consumed by the native optimizer.
	InjectCardinalities InjectionType = iota
	// InjectPlan: the driver supplies (or steers toward) the full plan.
	InjectPlan
)

// String names the injection point.
func (t InjectionType) String() string {
	switch t {
	case InjectCardinalities:
		return "cardinalities"
	case InjectPlan:
		return "plan"
	default:
		return fmt.Sprintf("InjectionType(%d)", int(t))
	}
}

// InitContext is handed to Driver.Init: the interactor plus the training
// workload the database user registered for the task.
type InitContext struct {
	// Ctx bounds the whole Init (training) phase: the caller's context.
	Ctx      context.Context
	DB       DB
	Workload []string // SQL statements
	Seed     int64
}

// Driver packages one AI4DB task, mirroring the paper's programming model:
// Init prepares and trains (collecting data through pull operators), and
// Algo is invoked per query to steer the database through push operators.
// Algo receives the query's context: a driver's steering work counts
// against the same deadline as the query itself.
type Driver interface {
	// Name identifies the driver.
	Name() string
	// Injection declares the component the driver replaces.
	Injection() InjectionType
	// Init collects training data and fits the driver's models.
	Init(ctx *InitContext) error
	// Algo steers the session for sess.Query via push/pull operators.
	Algo(ctx context.Context, sess *Session) error
}

// Updater is optionally implemented by drivers whose models track
// database changes; Console.UpdateModels calls it.
type Updater interface {
	Update(ctx *InitContext) error
}

// Console operates the whole middleware: it manages drivers, creates a
// session per interaction, and makes driver execution transparent to the
// database user — ExecuteSQL looks exactly like talking to the database.
//
// The console is the middleware's guardrail boundary: every driver call
// (Init, Algo, Update) runs under panic isolation, and a per-driver
// circuit breaker stops consulting a driver that keeps failing, re-probing
// with exponential backoff. A misbehaving driver can therefore never take
// the database down — queries always execute, natively if need be.
type Console struct {
	db       DB
	mu       sync.Mutex
	drivers  map[string]Driver
	breakers map[string]*guard.Breaker
	active   Driver
	workload []string
	seed     int64
	// BreakerCfg tunes the per-driver circuit breakers; the zero value
	// selects guard's defaults. Set before RegisterDriver.
	BreakerCfg guard.BreakerConfig
	// Overhead counters for E7/E10.
	QueriesServed  int
	DriverFailures int // driver errors (including recovered panics)
	DriverPanics   int // subset of failures that were panics
	BreakerSkips   int // queries served natively because the breaker was open
}

// NewConsole returns a console over the interactor.
func NewConsole(db DB, seed int64) *Console {
	return &Console{db: db, drivers: map[string]Driver{}, breakers: map[string]*guard.Breaker{}, seed: seed}
}

// RegisterDriver adds a driver to the console.
func (c *Console) RegisterDriver(d Driver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drivers[d.Name()] = d
	if _, ok := c.breakers[d.Name()]; !ok {
		c.breakers[d.Name()] = guard.NewBreaker(c.BreakerCfg)
	}
}

// Drivers lists registered driver names.
func (c *Console) Drivers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for n := range c.drivers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Breaker returns the named driver's circuit breaker, or nil.
func (c *Console) Breaker(name string) *guard.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakers[name]
}

// SetWorkload registers the training workload drivers may learn from.
func (c *Console) SetWorkload(sqls []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workload = append([]string(nil), sqls...)
}

// StartTask initializes and activates the named driver. Passing "" (or
// StopTask) deactivates — the database runs natively. A panic inside the
// driver's Init is recovered and reported as the returned error; the
// console stays fully operational.
func (c *Console) StartTask(ctx context.Context, name string) error {
	if name == "" {
		return c.StopTask()
	}
	c.mu.Lock()
	d, ok := c.drivers[name]
	workload := append([]string(nil), c.workload...)
	seed := c.seed
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("pilotscope: no driver %q", name)
	}
	err := guard.Safe(name+".Init", func() error {
		return d.Init(&InitContext{Ctx: ctx, DB: c.db, Workload: workload, Seed: seed})
	})
	if err != nil {
		return fmt.Errorf("pilotscope: init %s: %w", name, err)
	}
	c.mu.Lock()
	c.active = d
	c.mu.Unlock()
	return nil
}

// StopTask deactivates the current driver.
func (c *Console) StopTask() error {
	c.mu.Lock()
	c.active = nil
	c.mu.Unlock()
	return nil
}

// ActiveDriver returns the active driver's name, or "".
func (c *Console) ActiveDriver() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active == nil {
		return ""
	}
	return c.active.Name()
}

// consult runs the active driver's Algo for sess under panic isolation
// and the driver's circuit breaker, updating failure accounting. On any
// driver failure the session is reset so the query runs natively.
func (c *Console) consult(ctx context.Context, d Driver, sess *Session) {
	c.mu.Lock()
	br := c.breakers[d.Name()]
	c.mu.Unlock()
	if br != nil && !br.Allow() {
		c.mu.Lock()
		c.BreakerSkips++
		c.mu.Unlock()
		return
	}
	err := guard.Safe(d.Name()+".Algo", func() error { return d.Algo(ctx, sess) })
	if err != nil {
		c.mu.Lock()
		c.DriverFailures++
		if _, isPanic := err.(*guard.PanicError); isPanic {
			c.DriverPanics++
		}
		c.mu.Unlock()
		if br != nil {
			br.Failure()
		}
		sess.Reset()
		return
	}
	if br != nil {
		br.Success()
	}
}

// ExecuteSQL is the database user's entry point: it parses sql against
// the pulled catalog and serves it like ExecuteQuery. The active driver
// (if any) is consulted transparently; on driver failure — error or
// panic — the query still runs natively. The middleware never breaks the
// database.
func (c *Console) ExecuteSQL(ctx context.Context, sql string) (*Result, error) {
	d := c.admit()
	cat, err := pullCatalog(ctx, c.db)
	if err != nil {
		return nil, err
	}
	q, err := sqlx.Parse(sql, cat)
	if err != nil {
		return nil, err
	}
	return c.execute(ctx, d, q)
}

// ExecuteQuery is ExecuteSQL for pre-parsed queries.
func (c *Console) ExecuteQuery(ctx context.Context, q *query.Query) (*Result, error) {
	return c.execute(ctx, c.admit(), q)
}

// admit counts one served query and returns the active driver.
func (c *Console) admit() Driver {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.QueriesServed++
	return c.active
}

// execute consults d (if any) for q, then executes q under the session.
func (c *Console) execute(ctx context.Context, d Driver, q *query.Query) (*Result, error) {
	sess := &Session{Query: q}
	if d != nil {
		c.consult(ctx, d, sess)
	}
	return c.db.ExecuteQuery(ctx, sess, q)
}

// UpdateModels synchronously triggers the active driver's model update if
// it implements Updater (the paper runs this in the background; the
// workbench exposes it as a deterministic trigger). A panic inside Update
// is recovered into the returned error.
func (c *Console) UpdateModels(ctx context.Context) error {
	c.mu.Lock()
	d := c.active
	workload := append([]string(nil), c.workload...)
	seed := c.seed
	c.mu.Unlock()
	if d == nil {
		return nil
	}
	u, ok := d.(Updater)
	if !ok {
		return nil
	}
	return guard.Safe(d.Name()+".Update", func() error {
		return u.Update(&InitContext{Ctx: ctx, DB: c.db, Workload: workload, Seed: seed})
	})
}
