// A generic forward worklist solver over the CFG of cfg.go. An analyzer
// supplies the lattice as plain functions — Bottom, Merge (set union for
// a may-analysis, intersection for a must-analysis), Equal — plus a
// Transfer function interpreting one block's nodes; Solve iterates to
// fixpoint. Facts must be treated as immutable: Transfer and Merge
// return fresh values instead of mutating their inputs, which is what
// makes the worklist restart-safe.
//
// VarFlow is the runner the path-sensitive analyzers share on top of
// it: a fact mapping each tracked variable to a lattice value, solved
// over one function body and then replayed once with reporting on.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// Dataflow is one forward dataflow problem over a CFG.
type Dataflow[F any] struct {
	CFG *CFG

	// Entry is the fact flowing into the entry block.
	Entry F

	// Bottom produces the least fact — the initial IN of every
	// non-entry block. For a may-analysis it is the empty set; for a
	// must-analysis the universe.
	Bottom func() F

	// Transfer interprets one block: given the fact at block entry it
	// returns the fact at block exit. It must not mutate in.
	Transfer func(b *Block, in F) F

	// Merge combines facts where edges meet (union for may,
	// intersection for must). It must be monotone and must not mutate
	// its arguments.
	Merge func(a, b F) F

	// Equal reports fact equality — the fixpoint test.
	Equal func(a, b F) bool

	// MaxSteps bounds worklist iterations as a defense against a
	// non-monotone Transfer oscillating forever. 0 means 64 visits per
	// reachable block, far beyond what a monotone finite-height lattice
	// needs.
	MaxSteps int
}

// Solve runs the worklist to fixpoint and returns the IN fact of every
// reachable block. It errors out (rather than spinning) if the problem
// does not converge within MaxSteps — a non-monotone transfer or an
// infinite-height lattice, either of which is an analyzer bug.
func (d *Dataflow[F]) Solve() (map[*Block]F, error) {
	reach := d.CFG.Reachable()
	in := make(map[*Block]F, len(reach))
	out := make(map[*Block]F, len(reach))
	visited := make(map[*Block]bool, len(reach))
	for _, b := range reach {
		in[b] = d.Bottom()
	}
	in[d.CFG.Entry] = d.Entry

	maxSteps := d.MaxSteps
	if maxSteps == 0 {
		maxSteps = 64 * len(reach)
	}

	// Seed in reverse post-order so most facts stabilize in one pass.
	work := append([]*Block(nil), reach...)
	queued := make(map[*Block]bool, len(reach))
	for _, b := range work {
		queued[b] = true
	}
	steps := 0
	for len(work) > 0 {
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("analysis: dataflow did not converge after %d steps (non-monotone transfer?)", maxSteps)
		}
		b := work[0]
		work = work[1:]
		queued[b] = false

		o := d.Transfer(b, in[b])
		if visited[b] && d.Equal(o, out[b]) {
			continue
		}
		visited[b] = true
		out[b] = o
		for _, s := range b.Succs {
			merged := d.Merge(in[s], o)
			if !d.Equal(merged, in[s]) {
				in[s] = merged
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return in, nil
}

// Facts maps each tracked variable to its abstract value; a variable
// absent from the map is untracked.
type Facts[V comparable] map[*types.Var]V

// Clone returns a copy the caller may mutate.
func (f Facts[V]) Clone() Facts[V] {
	c := make(Facts[V], len(f))
	maps.Copy(c, f)
	return c
}

// VarFlow is a forward may-analysis over Facts[V]: an analyzer supplies
// the join of two values and the effect of one CFG node; VarFlow builds
// the CFG, solves, replays and de-duplicates reports.
type VarFlow[V comparable] struct {
	Pass *Pass

	// Join combines the values of a variable tracked on both incoming
	// edges; a variable tracked on one edge keeps its value.
	Join func(a, b V) V

	// Node applies one CFG node's effect to f in place. report is false
	// while solving and true on the single replay, the only time Node
	// may call Reportf.
	Node func(n ast.Node, f Facts[V], report bool)

	reported map[token.Pos]bool
}

// Run solves body from the entry fact, then interprets every reachable
// block once more with reporting on. It returns the fact reaching the
// normal exit. ok is false, and nothing is reported, when the problem
// does not converge: that is an analyzer bug, and staying silent beats
// reporting garbage.
func (fl *VarFlow[V]) Run(body *ast.BlockStmt, entry Facts[V]) (exit Facts[V], ok bool) {
	transfer := func(b *Block, in Facts[V], report bool) Facts[V] {
		f := in.Clone()
		for _, n := range b.Nodes {
			fl.Node(n, f, report)
		}
		return f
	}
	g := BuildCFG(body)
	df := &Dataflow[Facts[V]]{
		CFG:      g,
		Entry:    entry,
		Bottom:   func() Facts[V] { return Facts[V]{} },
		Transfer: func(b *Block, in Facts[V]) Facts[V] { return transfer(b, in, false) },
		Merge:    fl.merge,
		Equal:    maps.Equal[Facts[V], Facts[V]],
	}
	ins, err := df.Solve()
	if err != nil {
		return nil, false
	}
	for _, b := range g.Reachable() {
		transfer(b, ins[b], true)
	}
	return ins[g.Exit], true
}

func (fl *VarFlow[V]) merge(a, b Facts[V]) Facts[V] {
	m := a.Clone()
	for k, v := range b {
		if w, ok := m[k]; ok {
			v = fl.Join(w, v)
		}
		m[k] = v
	}
	return m
}

// Reportf reports at pos unless this flow already has: the replay can
// reach one position from several blocks, and nested runs on the same
// VarFlow share the record.
func (fl *VarFlow[V]) Reportf(pos token.Pos, format string, args ...any) {
	if fl.reported[pos] {
		return
	}
	if fl.reported == nil {
		fl.reported = map[token.Pos]bool{}
	}
	fl.reported[pos] = true
	fl.Pass.Reportf(pos, format, args...)
}
