// aggSink is the pipeline's root consumer: it drains the operator tree
// and folds the query's aggregate incrementally, in emission order — the
// same row order the reference evaluator folds over its materialized
// final relation, so SUM/AVG bit patterns match exactly. It reads one
// column, the aggregate's alias, and for COUNT(*) none: only row counts.
package exec

import (
	"context"
	"fmt"
	"math"
	"slices"

	"lqo/internal/data"
	"lqo/internal/query"
)

type aggSink struct {
	e      *Executor
	q      *query.Query
	child  Operator
	reads  [1]string // backs needed
	needed []string  // the aggregate's alias, or nothing for COUNT(*)

	ctx context.Context
	pos int
	col *data.Column
	// bindErr is an aggregate binding failure (unknown alias/table/column).
	// The reference evaluator surfaces it only after a successful plan
	// evaluation and a clean context, so it is recorded at Open and checked
	// by the run loop after the drain.
	bindErr error

	drained     bool
	count       int64
	sum, lo, hi float64
	tel         OpTelemetry
}

func newAggSink(e *Executor, q *query.Query) *aggSink {
	s := drawOp[aggSink](e.pool, opSink)
	s.e, s.q, s.lo, s.hi = e, q, math.Inf(1), math.Inf(-1)
	if q.Agg.Kind != query.AggCount {
		s.reads[0] = q.Agg.Alias
		s.needed = s.reads[:]
	}
	return s
}

func (s *aggSink) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.ctx = ctx
	s.tel.Op = "Aggregate"
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	if s.q.Agg.Kind == query.AggCount {
		return nil // COUNT(*) needs no column binding
	}
	pos := slices.Index(s.child.Schema(), s.q.Agg.Alias)
	if pos < 0 {
		s.bindErr = fmt.Errorf("exec: aggregate alias %q not in plan output", s.q.Agg.Alias)
		return nil
	}
	tbl := s.e.Cat.Table(s.q.TableOf(s.q.Agg.Alias))
	if tbl == nil {
		s.bindErr = fmt.Errorf("exec: unknown table for aggregate alias %q", s.q.Agg.Alias)
		return nil
	}
	col := tbl.Column(s.q.Agg.Column)
	if col == nil {
		s.bindErr = fmt.Errorf("exec: unknown aggregate column %s.%s", s.q.Agg.Alias, s.q.Agg.Column)
		return nil
	}
	s.pos, s.col = pos, col
	return nil
}

// drain pulls the child to exhaustion, counting rows and folding the
// aggregate column in emission order.
func (s *aggSink) drain() error {
	for {
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		s.count += int64(b.N)
		if s.col != nil {
			for _, r := range b.Cols[s.pos][:b.N] {
				v := s.col.Float(int(r))
				s.sum += v
				if v < s.lo {
					s.lo = v
				}
				if v > s.hi {
					s.hi = v
				}
			}
		}
	}
	s.drained = true
	s.tel.RowsIn = s.count
	s.tel.RowsOut = 1
	// The sink charges no work units: the reference evaluator snapshots
	// CostStats before its aggregate step, so the aggregate's fold never
	// reaches the reported WorkUnits. Charging here would break both the
	// byte-identity invariant and Telemetry-sums-to-Stats.
	return nil
}

// value computes the final aggregate, mirroring the reference evaluator's
// empty-result semantics (NaN for MIN/MAX, 0 otherwise).
func (s *aggSink) value() float64 {
	switch s.q.Agg.Kind {
	case query.AggCount:
		return float64(s.count)
	}
	if s.count == 0 {
		if s.q.Agg.Kind == query.AggMin || s.q.Agg.Kind == query.AggMax {
			return math.NaN()
		}
		return 0
	}
	switch s.q.Agg.Kind {
	case query.AggSum:
		return s.sum
	case query.AggAvg:
		return s.sum / float64(s.count)
	case query.AggMin:
		return s.lo
	default: // AggMax
		return s.hi
	}
}

func (s *aggSink) Next() (*Batch, error) {
	if !s.drained {
		if err := s.drain(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (s *aggSink) Close() error            { return s.child.Close() }
func (s *aggSink) Telemetry() *OpTelemetry { return &s.tel }
func (s *aggSink) Schema() []string        { return nil }

func (s *aggSink) recycle(p *BatchPool) {
	*s = aggSink{}
	p.ops[opSink].Put(s)
}
