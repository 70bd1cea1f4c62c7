// ShardScans: the headline distribution pass. It turns eligible SeqScan
// leaves into Merge leaves that scatter the scan over N hash partitions
// of the table — the scatter half of scatter-gather. The gather half
// (internal/exec's merge operator) runs each partition on an engine
// instance behind the ShardBackend interface and k-way-merges the
// per-shard streams back into global row order, keeping results and
// charged WorkUnits byte-identical to the unsharded reference.
package plan

import "context"

// ShardScans returns the rewrite pass that scatters SeqScan leaves over
// numShards hash partitions. Counts below 2 yield a pass that never
// fires.
func ShardScans(numShards int) ShardScansPass {
	return ShardScansPass{NumShards: numShards}
}

// ShardScansPass rewrites every SeqScan leaf into a Merge leaf with
// Shards = NumShards, keeping the scan's alias, table, predicates and
// annotations. IndexScan leaves are left alone: point lookups don't
// amortize the scatter, and the index side of the partition story
// belongs to a later pass. A plan without SeqScan leaves is left as is,
// which makes the pass idempotent.
type ShardScansPass struct {
	NumShards int
}

// Name implements RewritePass.
func (s ShardScansPass) Name() string { return "shard-scans" }

// Rewrite implements RewritePass.
func (s ShardScansPass) Rewrite(ctx context.Context, n *Node, pc *PassContext) (*Node, bool) {
	if ctx.Err() != nil || s.NumShards < 2 {
		return n, false
	}
	needs := false
	n.Walk(func(m *Node) { needs = needs || m.Op == SeqScan })
	if !needs {
		return n, false
	}
	c := n.Clone()
	c.Walk(func(m *Node) {
		if m.Op == SeqScan {
			m.Op, m.Shards = Merge, s.NumShards
		}
	})
	return c, true
}
