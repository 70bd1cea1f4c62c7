// Package plan defines physical plan trees — the artifact every optimizer
// in the workbench produces and every learned cost model consumes — plus
// hint sets (Bao-style steering knobs) and canonical plan hashing.
package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lqo/internal/query"
)

// Op is a physical operator kind.
type Op int

// Physical operators. Scans sit at leaves; joins are binary inner nodes.
// Merge/Exchange are the scatter-gather pair introduced by the ShardScans
// rewrite pass: a Merge node gathers N Exchange children (held in
// Node.Shards), each of which ships a shard-local subplan to a
// ShardBackend engine instance.
const (
	SeqScan Op = iota
	IndexScan
	NestedLoopJoin
	HashJoin
	MergeJoin
	Merge
	Exchange
)

// String returns the display name of the operator.
func (op Op) String() string {
	switch op {
	case SeqScan:
		return "SeqScan"
	case IndexScan:
		return "IndexScan"
	case NestedLoopJoin:
		return "NestedLoopJoin"
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case Merge:
		return "Merge"
	case Exchange:
		return "Exchange"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// IsJoin reports whether the operator is a join.
func (op Op) IsJoin() bool {
	return op == NestedLoopJoin || op == HashJoin || op == MergeJoin
}

// Node is a physical plan node. Scan leaves carry the alias, base table and
// pushed-down predicates; join nodes carry the equi-join conditions applied
// at that level and two children.
//
// EstCard/EstCost are annotations filled by whichever cardinality estimator
// and cost model optimized the plan; TrueCard is filled by execution.
type Node struct {
	Op    Op
	Alias string       // scans and Merge nodes
	Table string       // scans and Merge nodes: base table name
	Preds []query.Pred // scans (and Merge): pushed-down filters
	Cond  []query.Join // joins: equi-join conditions at this node
	Left  *Node
	Right *Node

	// Shards holds a Merge node's n-ary children: one Exchange per hash
	// partition of the underlying table. Empty on every other operator.
	Shards []*Node
	// Shard/ShardOf identify an Exchange node's partition: the node's
	// subplan (Left) covers partition Shard of ShardOf. Zero elsewhere.
	Shard   int
	ShardOf int

	EstCard  float64
	EstCost  float64
	TrueCard float64
}

// NewScan returns a scan leaf over alias (bound to table) with pushed-down
// predicates.
func NewScan(op Op, alias, table string, preds []query.Pred) *Node {
	return &Node{Op: op, Alias: alias, Table: table, Preds: preds}
}

// NewJoin returns a join node combining left and right under cond.
func NewJoin(op Op, left, right *Node, cond []query.Join) *Node {
	return &Node{Op: op, Left: left, Right: right, Cond: cond}
}

// IsLeaf reports whether the node is a scan.
func (n *Node) IsLeaf() bool {
	return n.Left == nil && n.Right == nil && len(n.Shards) == 0
}

// Aliases returns the sorted distinct aliases covered by the subtree.
// Shard subplans replicate their Merge node's alias, so duplicates are
// collapsed.
func (n *Node) Aliases() []string {
	var out []string
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m.Alias)
		}
	})
	sort.Strings(out)
	dedup := out[:0]
	for i, a := range out {
		if i == 0 || a != out[i-1] {
			dedup = append(dedup, a)
		}
	}
	return dedup
}

// AliasSet returns the subtree's aliases as a set.
func (n *Node) AliasSet() map[string]bool {
	return query.SetOf(n.Aliases())
}

// Walk visits the subtree pre-order, descending into a Merge node's
// shard children after Left/Right. Use WalkLogical to visit the logical
// tree only (one node per Merge, shard internals skipped).
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	n.Left.Walk(fn)
	n.Right.Walk(fn)
	for _, s := range n.Shards {
		s.Walk(fn)
	}
}

// WalkLogical visits the logical plan pre-order: like Walk, but a Merge
// node is visited as a single (scan-like) node and its Exchange/shard
// internals are skipped. Feedback harvesting and estimate snapshots use
// this view so per-shard cardinalities never masquerade as whole-scan
// truths.
func (n *Node) WalkLogical(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	if n.Op == Merge {
		return
	}
	n.Left.WalkLogical(fn)
	n.Right.WalkLogical(fn)
}

// WalkLogicalMasks is WalkLogical that also hands fn each node's alias
// set as a mask of g, the join graph of the query the plan computes:
// leaf and Merge bits are looked up once and folded bottom-up, in one
// pass over the tree, instead of re-collecting and sorting the aliases
// below every node. g.Sub(mask) and g.Key(mask) then give the node's
// sub-query and its canonical key.
func (n *Node) WalkLogicalMasks(g *query.JoinGraph, fn func(*Node, uint64)) {
	pre := make([]maskedNode, 0, 2*len(g.Aliases))
	n.foldMasks(g, &pre)
	for _, v := range pre {
		fn(v.n, v.mask)
	}
}

type maskedNode struct {
	n    *Node
	mask uint64
}

// foldMasks appends the logical subtree to pre in pre-order and returns
// its alias mask.
func (n *Node) foldMasks(g *query.JoinGraph, pre *[]maskedNode) uint64 {
	if n == nil {
		return 0
	}
	at := len(*pre)
	*pre = append(*pre, maskedNode{n: n})
	var mask uint64
	if n.IsLeaf() || n.Op == Merge {
		mask = g.Bit(n.Alias)
	} else {
		mask = n.Left.foldMasks(g, pre) | n.Right.foldMasks(g, pre)
	}
	(*pre)[at].mask = mask
	return mask
}

// Nodes returns all nodes of the subtree in pre-order.
func (n *Node) Nodes() []*Node {
	var out []*Node
	n.Walk(func(m *Node) { out = append(out, m) })
	return out
}

// NumJoins returns the number of join nodes in the subtree.
func (n *Node) NumJoins() int {
	k := 0
	n.Walk(func(m *Node) {
		if m.Op.IsJoin() {
			k++
		}
	})
	return k
}

// Clone deep-copies the subtree, preserving annotations.
func (n *Node) Clone() *Node {
	c := n.CloneNodes()
	c.Walk(func(m *Node) {
		m.Preds = append([]query.Pred(nil), m.Preds...)
		m.Cond = append([]query.Join(nil), m.Cond...)
	})
	return c
}

// CloneNodes copies the subtree's nodes into one allocation (plus one per
// Merge node's shard list), sharing the Preds and Cond slices with n: the
// copy's may be replaced, as rebinding does, but never written through.
func (n *Node) CloneNodes() *Node {
	count := 0
	n.Walk(func(*Node) { count++ })
	slab := make([]Node, 0, count)
	return n.cloneInto(&slab)
}

func (n *Node) cloneInto(slab *[]Node) *Node {
	if n == nil {
		return nil
	}
	*slab = append(*slab, *n)
	c := &(*slab)[len(*slab)-1]
	c.Left, c.Right = n.Left.cloneInto(slab), n.Right.cloneInto(slab)
	if n.Shards != nil {
		c.Shards = make([]*Node, len(n.Shards))
		for i, s := range n.Shards {
			c.Shards[i] = s.cloneInto(slab)
		}
	}
	return c
}

// Fingerprint returns a canonical string for the physical plan: operator
// tree shape with scan targets and join conditions. Predicate values are
// included so that plans for different queries never collide. Join-operand
// order is preserved (NL join cost is asymmetric). The encoding shares
// query.KeyBuilder with Query.Key: aliases, tables, columns and literals
// are length-prefixed, so delimiter bytes inside them cannot make two
// distinct plans render the same fingerprint (the old ";"/","-joined
// format could collide, which becomes cache poisoning the moment a plan
// cache keys on it).
func (n *Node) Fingerprint() string {
	var k query.KeyBuilder
	n.fingerprint(&k)
	return k.String()
}

func (n *Node) fingerprint(k *query.KeyBuilder) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		k.Raw(n.Op.String()).Raw("(").Atom(n.Alias).Raw(":").Atom(n.Table)
		for _, p := range n.Preds {
			k.Append(p.KeyString())
		}
		k.Raw(")")
		return
	}
	switch n.Op {
	case Merge:
		k.Raw(n.Op.String()).Raw("(").Atom(n.Alias).Raw(":").Atom(n.Table)
		for _, p := range n.Preds {
			k.Append(p.KeyString())
		}
		k.Raw(")[")
		for _, s := range n.Shards {
			s.fingerprint(k)
		}
		k.Raw("]")
		return
	case Exchange:
		k.Raw(n.Op.String()).Raw("@").Atom(strconv.Itoa(n.Shard)).Raw("/").Atom(strconv.Itoa(n.ShardOf)).Raw("(")
		n.Left.fingerprint(k)
		k.Raw(")")
		return
	}
	k.Raw(n.Op.String()).Raw("[")
	for _, j := range n.Cond {
		k.Append(j.KeyString())
	}
	k.Raw("](")
	n.Left.fingerprint(k)
	k.Raw(",")
	n.Right.fingerprint(k)
	k.Raw(")")
}

// StructureKey is Fingerprint without predicate literals: it identifies the
// join-order + operator shape. Eraser's coarse filter groups plans by it.
func (n *Node) StructureKey() string {
	var k query.KeyBuilder
	n.structureKey(&k)
	return k.String()
}

func (n *Node) structureKey(k *query.KeyBuilder) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		k.Raw(n.Op.String()).Raw("(").Atom(n.Alias).Raw(")")
		return
	}
	switch n.Op {
	case Merge:
		// Shard count (not per-shard subtrees) is the structural signal: a
		// 2-way and a 4-way merge of the same scan are different shapes.
		k.Raw(n.Op.String()).Raw("@").Atom(strconv.Itoa(len(n.Shards))).Raw("(").Atom(n.Alias).Raw(")")
		return
	case Exchange:
		k.Raw(n.Op.String()).Raw("(")
		n.Left.structureKey(k)
		k.Raw(")")
		return
	}
	k.Raw(n.Op.String()).Raw("(")
	n.Left.structureKey(k)
	k.Raw(",")
	n.Right.structureKey(k)
	k.Raw(")")
}

// String renders an indented plan tree with annotations.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	switch {
	case n.IsLeaf(), n.Op == Merge:
		fmt.Fprintf(b, "%s %s", n.Op, n.Alias)
		if n.Table != n.Alias && n.Table != "" {
			fmt.Fprintf(b, " (%s)", n.Table)
		}
		if n.Op == Merge {
			fmt.Fprintf(b, " [%d shards]", len(n.Shards))
		}
		if len(n.Preds) > 0 {
			strs := make([]string, len(n.Preds))
			for i, p := range n.Preds {
				strs[i] = p.String()
			}
			fmt.Fprintf(b, " filter: %s", strings.Join(strs, " AND "))
		}
	case n.Op == Exchange:
		fmt.Fprintf(b, "%s [shard %d/%d]", n.Op, n.Shard, n.ShardOf)
	default:
		strs := make([]string, len(n.Cond))
		for i, j := range n.Cond {
			strs[i] = j.String()
		}
		fmt.Fprintf(b, "%s on %s", n.Op, strings.Join(strs, " AND "))
	}
	if n.EstCard > 0 || n.TrueCard > 0 {
		fmt.Fprintf(b, "  [est=%.0f true=%.0f cost=%.1f]", n.EstCard, n.TrueCard, n.EstCost)
	}
	b.WriteString("\n")
	n.Left.render(b, depth+1)
	n.Right.render(b, depth+1)
	for _, s := range n.Shards {
		s.render(b, depth+1)
	}
}

// Subquery reconstructs the logical sub-query computed by the subtree of q.
func (n *Node) Subquery(q *query.Query) *query.Query {
	return q.Subquery(n.AliasSet())
}

// JoinOrder returns the leaf aliases in left-to-right plan order — the
// linearized join order, used as RL episode output.
func (n *Node) JoinOrder() []string {
	var out []string
	var rec func(m *Node)
	rec = func(m *Node) {
		if m == nil {
			return
		}
		if m.IsLeaf() || m.Op == Merge {
			// A Merge node stands in for the scan it sharded: one leaf.
			out = append(out, m.Alias)
			return
		}
		rec(m.Left)
		rec(m.Right)
	}
	rec(n)
	return out
}
