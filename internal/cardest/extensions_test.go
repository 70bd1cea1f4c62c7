package cardest

import (
	"testing"

	"lqo/internal/query"
)

func TestFauceUntrainedSafe(t *testing.T) {
	e := NewFauce()
	q := &query.Query{}
	if e.Estimate(q) != 0 {
		t.Fatal("untrained estimate should be 0")
	}
}
