// aggSink is the pipeline's root consumer: it drains the operator tree
// and folds the query's aggregate incrementally, in emission order — the
// same row order the reference evaluator folds over its materialized
// final relation, so SUM/AVG bit patterns match exactly. It reads one
// column, the aggregate's alias, and for COUNT(*) none: only row counts.
package exec

import (
	"context"
	"math"

	"lqo/internal/query"
)

type aggSink struct {
	q     *query.Query
	child Operator
	b     *Binding // the run's: the aggregate's column and position

	ctx         context.Context
	drained     bool
	count       int64
	sum, lo, hi float64
	tel         OpTelemetry
}

func newAggSink(pool *runSet, q *query.Query, b *Binding) *aggSink {
	s := drawOp[aggSink](pool, opSink)
	s.q, s.b, s.lo, s.hi = q, b, math.Inf(1), math.Inf(-1)
	return s
}

func (s *aggSink) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.ctx = ctx
	s.tel.Op = "Aggregate"
	return s.child.Open(ctx)
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
		if col := s.b.agg.col; col != nil {
			for _, r := range b.Cols[s.b.agg.pos][:b.N] {
				v := col.Float(int(r))
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

func (s *aggSink) recycle(p *runSet) {
	*s = aggSink{}
	p.ops[opSink] = append(p.ops[opSink], s)
}
