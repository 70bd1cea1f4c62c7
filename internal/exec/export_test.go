package exec

import (
	"context"
	"fmt"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// The shard fixtures, for the external test package.
var (
	ShardCatalog = shardCatalog
	ShardQueries = shardQueries
)

// RootJoinListed runs p's operator tree on ex by hand and reports whether
// its root hash join ever listed a (probe row, build row) pair: a root
// that only counts its matches never does.
func RootJoinListed(ex *Executor, q *query.Query, p *plan.Node) (bool, error) {
	set := ex.pool.checkout()
	defer ex.pool.checkin(set)
	b, err := ex.Bind(ex.Cat, q, p)
	if err != nil {
		return false, err
	}
	i := 0
	op, err := ex.buildOperator(set, q, p, b, &i, false)
	if err != nil {
		return false, err
	}
	j, ok := op.(*hashJoinOp)
	if !ok {
		return false, fmt.Errorf("root operator is %T, want a hash join", op)
	}
	defer j.Close()
	if err := j.Open(context.Background()); err != nil {
		return false, err
	}
	// The match vectors start empty and unallocated: the first listed
	// pair allocates them. Close gets the pooled ones back.
	pooled := j.match
	defer func() { j.match = pooled }()
	j.match = [2][]int32{}
	for {
		bt, err := j.Next()
		if err != nil {
			return false, err
		}
		if bt == nil {
			return cap(j.match[0]) > 0 || cap(j.match[1]) > 0, nil
		}
	}
}
