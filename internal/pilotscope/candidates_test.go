package pilotscope

import (
	"context"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// candidate is one knob's plan for a query.
type candidate struct {
	knob any
	plan *plan.Node
}

// candidates is the steering core's candidate set for q under d's knobs.
func (d *SteeringDriver) candidates(ctx context.Context, q *query.Query) ([]candidate, error) {
	cs, err := d.steering(d.value).Candidates(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make([]candidate, len(cs))
	for i, c := range cs {
		out[i] = candidate{knob: c.Knob, plan: c.Plan}
	}
	return out, nil
}
