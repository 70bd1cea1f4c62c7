package pilotscope

import (
	"context"
	"fmt"
	"sort"

	"lqo/internal/data"
	"lqo/internal/query"
	"lqo/internal/sqlx"
)

// IndexSpec names a column to index.
type IndexSpec struct {
	Table, Column string
}

// IndexAdvisorDriver demonstrates the middleware's generality beyond the
// query optimizer (the paper: "PilotScope could support deploying a
// variety of AI4DB tasks"): a physical-design task that mines the
// registered workload for frequently equality-filtered columns and pushes
// index builds for the best candidates. Init does all the work; Algo is a
// per-query no-op because physical design is not a per-query decision.
type IndexAdvisorDriver struct {
	// MinUses is the minimum number of workload equality predicates on a
	// column to justify an index (default 3).
	MinUses int
	// MaxIndexes caps how many indexes are recommended (default 5).
	MaxIndexes int

	recommended []IndexSpec
}

// NewIndexAdvisorDriver returns an index advisor with default thresholds.
func NewIndexAdvisorDriver() *IndexAdvisorDriver {
	return &IndexAdvisorDriver{MinUses: 3, MaxIndexes: 5}
}

// Name implements Driver.
func (d *IndexAdvisorDriver) Name() string { return "index-advisor" }

// Injection implements Driver. Index building changes the physical design
// the plans run against, so it is a plan-level concern.
func (d *IndexAdvisorDriver) Injection() InjectionType { return InjectPlan }

// Init implements Driver: mine the workload, recommend, and push builds.
func (d *IndexAdvisorDriver) Init(ctx *InitContext) error {
	cat, err := pullCatalog(ctx.Ctx, ctx.DB)
	if err != nil {
		return err
	}

	uses := map[IndexSpec]int{}
	for _, sql := range ctx.Workload {
		q, err := sqlx.Parse(sql, cat)
		if err != nil {
			continue
		}
		for _, p := range q.Preds {
			if p.Op != query.Eq {
				continue
			}
			uses[IndexSpec{q.TableOf(p.Alias), p.Column}]++
		}
	}
	type cand struct {
		spec IndexSpec
		n    int
	}
	var cands []cand
	for spec, n := range uses {
		t := cat.Table(spec.Table)
		if n < d.MinUses || t == nil || t.Index(spec.Column) != nil {
			continue
		}
		c := t.Column(spec.Column)
		if c == nil || c.Kind == data.Float {
			continue
		}
		cands = append(cands, cand{spec, n})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].spec.Table+cands[i].spec.Column < cands[j].spec.Table+cands[j].spec.Column
	})
	if len(cands) > d.MaxIndexes {
		cands = cands[:d.MaxIndexes]
	}
	d.recommended = d.recommended[:0]
	for _, c := range cands {
		if err := ctx.DB.Push(ctx.Ctx, &Session{}, PushIndex, c.spec); err != nil {
			return fmt.Errorf("pilotscope: building index %s.%s: %w", c.spec.Table, c.spec.Column, err)
		}
		d.recommended = append(d.recommended, c.spec)
	}
	return nil
}

// Algo implements Driver: physical design needs no per-query action.
func (d *IndexAdvisorDriver) Algo(ctx context.Context, sess *Session) error { return nil }

// Recommended returns the indexes the advisor built.
func (d *IndexAdvisorDriver) Recommended() []IndexSpec {
	out := make([]IndexSpec, len(d.recommended))
	copy(out, d.recommended)
	return out
}
