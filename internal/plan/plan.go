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
// Merge is the sharded sequential scan the ShardScans rewrite pass
// introduces: a leaf that scatters its scan over Node.Shards hash
// partitions through a ShardBackend and gathers them back in row order.
const (
	SeqScan Op = iota
	IndexScan
	NestedLoopJoin
	HashJoin
	MergeJoin
	Merge
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

	// Shards is a Merge node's fan-out: the number of hash partitions of
	// the table its scan is scattered over. Zero on every other operator.
	Shards int

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

// IsLeaf reports whether the node is a scan (a Merge node included).
func (n *Node) IsLeaf() bool {
	return n.Left == nil && n.Right == nil
}

// Aliases returns the sorted aliases covered by the subtree.
func (n *Node) Aliases() []string {
	var out []string
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m.Alias)
		}
	})
	sort.Strings(out)
	return out
}

// AliasSet returns the subtree's aliases as a set.
func (n *Node) AliasSet() map[string]bool {
	return query.SetOf(n.Aliases())
}

// Walk visits the subtree pre-order. A sharded scan is one Merge leaf, so
// every node is one logical operator.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	n.Left.Walk(fn)
	n.Right.Walk(fn)
}

// WalkLogical is Walk, kept for benchmark/trace.go.
func (n *Node) WalkLogical(fn func(*Node)) { n.Walk(fn) }

// WalkLogicalMasks is Walk that also hands fn each node's alias set as a
// mask of g, the join graph of the query the plan computes: leaf bits
// are looked up once and folded bottom-up, in one pass over the tree,
// instead of re-collecting and sorting the aliases below every node.
// g.Sub(mask) and g.Key(mask) then give the node's sub-query and its
// canonical key. The pre-order lives on the stack for plans of up to 16
// tables (31 nodes); larger ones grow it on the heap.
func (n *Node) WalkLogicalMasks(g *query.JoinGraph, fn func(*Node, uint64)) {
	var buf [32]maskedNode
	pre, _ := n.foldMasks(g, buf[:0])
	for _, v := range pre {
		fn(v.n, v.mask)
	}
}

type maskedNode struct {
	n    *Node
	mask uint64
}

// foldMasks appends the subtree to pre in pre-order and returns the
// extended slice and the subtree's alias mask.
func (n *Node) foldMasks(g *query.JoinGraph, pre []maskedNode) ([]maskedNode, uint64) {
	if n == nil {
		return pre, 0
	}
	at := len(pre)
	pre = append(pre, maskedNode{n: n})
	var mask uint64
	if n.IsLeaf() {
		mask = g.Bit(n.Alias)
	} else {
		var left, right uint64
		pre, left = n.Left.foldMasks(g, pre)
		pre, right = n.Right.foldMasks(g, pre)
		mask = left | right
	}
	pre[at].mask = mask
	return pre, mask
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

// CloneNodes copies the subtree's nodes into one allocation, sharing the
// Preds and Cond slices with n: the copy's may be replaced, as rebinding
// does, but never written through.
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
		n.fingerprintScan(k, n.Op)
		if n.Op == Merge {
			// One entry per partition, spelled as the per-shard subplan
			// the Merge node once held, so fingerprints keep their bytes.
			k.Raw("[")
			for i := 0; i < n.Shards; i++ {
				k.Raw("Exchange@").Atom(strconv.Itoa(i)).Raw("/").Atom(strconv.Itoa(n.Shards)).Raw("(")
				n.fingerprintScan(k, SeqScan)
				k.Raw(")")
			}
			k.Raw("]")
		}
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

func (n *Node) fingerprintScan(k *query.KeyBuilder, op Op) {
	k.Raw(op.String()).Raw("(").Atom(n.Alias).Raw(":").Atom(n.Table)
	for _, p := range n.Preds {
		k.Append(p.KeyString())
	}
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
		k.Raw(n.Op.String())
		if n.Op == Merge {
			// The fan-out is structural: a 2-way and a 4-way merge of the
			// same scan are different shapes.
			k.Raw("@").Atom(strconv.Itoa(n.Shards))
		}
		k.Raw("(").Atom(n.Alias).Raw(")")
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
	renderTree(&b, n, 0, func(b *strings.Builder, n *Node) {
		if n.EstCard > 0 || n.TrueCard > 0 {
			fmt.Fprintf(b, "  [est=%.0f true=%.0f cost=%.1f]", n.EstCard, n.TrueCard, n.EstCost)
		}
	})
	return b.String()
}

// renderTree writes the subtree as an indented operator tree, one line
// per node: the node's label, then whatever annotate appends.
func renderTree(b *strings.Builder, n *Node, depth int, annotate func(*strings.Builder, *Node)) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s %s", n.Op, n.Alias)
		if n.Table != n.Alias && n.Table != "" {
			fmt.Fprintf(b, " (%s)", n.Table)
		}
		if n.Op == Merge {
			fmt.Fprintf(b, " [%d shards]", n.Shards)
		}
		if len(n.Preds) > 0 {
			strs := make([]string, len(n.Preds))
			for i, p := range n.Preds {
				strs[i] = p.String()
			}
			fmt.Fprintf(b, " filter: %s", strings.Join(strs, " AND "))
		}
	} else {
		strs := make([]string, len(n.Cond))
		for i, j := range n.Cond {
			strs[i] = j.String()
		}
		fmt.Fprintf(b, "%s on %s", n.Op, strings.Join(strs, " AND "))
	}
	annotate(b, n)
	b.WriteString("\n")
	renderTree(b, n.Left, depth+1, annotate)
	renderTree(b, n.Right, depth+1, annotate)
}

// Subquery reconstructs the logical sub-query computed by the subtree of q.
func (n *Node) Subquery(q *query.Query) *query.Query {
	return q.Subquery(n.AliasSet())
}
