package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildFromSrc parses src as a file containing one function declaration
// and returns the CFG of its body.
func buildFromSrc(t *testing.T, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return BuildCFG(fd.Body)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// The goldens pin the whole lowering: block boundaries, edge order, the
// defer chain, panic edges and dead blocks. A change to the builder that
// shifts any of these must update the golden deliberately.
func TestBuildCFGGolden(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "if-no-else",
			src: `func f(x int) int {
	if x > 0 {
		x++
	}
	return x
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: x > 0 -> b6 b5
b5: return x -> b3
b6: x++ -> b5
b7: -> b3
`,
		},
		{
			name: "if-else-early-return",
			src: `func f(x int) int {
	if x > 0 {
		return 1
	} else {
		x--
	}
	return x
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: x > 0 -> b6 b8
b5: return x -> b3
b6: return 1 -> b3
b7: -> b5
b8: x-- -> b5
b9: -> b3
`,
		},
		{
			name: "for-three-clause",
			src: `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: s := 0; i := 0 -> b5
b5: i < n -> b6 b8
b6: return s -> b3
b7: i++ -> b5
b8: s += i -> b7
b9: -> b3
`,
		},
		{
			name: "for-break-continue",
			src: `func f(n int) {
	for {
		if n == 0 {
			break
		}
		if n == 1 {
			continue
		}
		n--
	}
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: -> b5
b5: -> b7
b6: -> b3
b7: n == 0 -> b9 b8
b8: n == 1 -> b12 b11
b9: break -> b6
b10: -> b8
b11: n-- -> b5
b12: continue -> b5
b13: -> b11
`,
		},
		{
			name: "switch-fallthrough-no-default",
			src: `func f(x int) int {
	switch x {
	case 1:
		x++
		fallthrough
	case 2:
		x += 2
	}
	return x
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: x -> b6 b7 b5
b5: return x -> b3
b6: 1; x++; fallthrough -> b7
b7: 2; x += 2 -> b5
b8: -> b3
`,
		},
		{
			name: "select-no-default-blocks",
			src: `func f(a, b chan int) int {
	var v int
	select {
	case v = <-a:
	case v = <-b:
		v *= 2
	}
	return v
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: var v int -> b6 b7
b5: return v -> b3
b6: v = <-a -> b5
b7: v = <-b; v *= 2 -> b5
b8: -> b3
`,
		},
		{
			name: "defer-chain-lifo",
			src: `func f() error {
	defer a()
	if bad() {
		return errBad
	}
	defer b()
	return nil
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b9
b4: defer a(); bad() -> b6 b5
b5: defer b(); return nil -> b3
b6: return errBad -> b3
b7: -> b5
b8: -> b3
b9: b() -> b10
b10: a() -> b1
`,
		},
		{
			name: "panic-skips-defers",
			src: `func f(x int) {
	defer cleanup()
	if x < 0 {
		panic("negative")
	}
	use(x)
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b8
b4: defer cleanup(); x < 0 -> b6 b5
b5: use(x) -> b3
b6: panic("negative") -> b2
b7: -> b5
b8: cleanup() -> b1
`,
		},
		{
			name: "labeled-break-nested-loops",
			src: `func f(m [][]int) int {
	s := 0
outer:
	for i := range m {
		for j := range m[i] {
			if m[i][j] < 0 {
				break outer
			}
			s += j
		}
	}
	return s
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: s := 0 -> b5
b5: -> b6
b6: for i := range m -> b7 b8
b7: return s -> b3
b8: -> b9
b9: for j := range m[i] -> b10 b11
b10: -> b6
b11: m[i][j] < 0 -> b13 b12
b12: s += j -> b9
b13: break outer -> b7
b14: -> b12
b15: -> b3
`,
		},
		{
			name: "goto-backward",
			src: `func f(n int) int {
top:
	n--
	if n > 0 {
		goto top
	}
	return n
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: -> b5
b5: n--; n > 0 -> b7 b6
b6: return n -> b3
b7: goto top -> b5
b8: -> b6
b9: -> b3
`,
		},
		{
			name: "dead-code-after-return",
			src: `func f() int {
	return 1
	return 2
}`,
			want: `b0 entry: -> b4
b1 exit: ->
b2 panic: ->
b3: -> b1
b4: return 1 -> b3
b5: return 2 -> b3
b6: -> b3
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := buildFromSrc(t, tt.src).String()
			if got != tt.want {
				t.Errorf("CFG mismatch\n--- got ---\n%s--- want ---\n%s", got, tt.want)
			}
		})
	}
}

// TestReachableSkipsDeadBlocks pins that code after a terminator gets no
// facts: the dead block must not appear in Reachable().
func TestReachableSkipsDeadBlocks(t *testing.T) {
	g := buildFromSrc(t, `func f() int {
	return 1
	return 2
}`)
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) == 1 {
				if lit, ok := r.Results[0].(*ast.BasicLit); ok && lit.Value == "2" {
					t.Fatal("dead `return 2` block is reachable")
				}
			}
		}
	}
}

// TestSolverFixpointOnLoop runs a live-variable-ish counting analysis
// over a loop with a back-edge and checks the solver reaches a fixpoint
// (rather than erroring on the step bound) and produces the expected
// join at the loop head.
func TestSolverFixpointOnLoop(t *testing.T) {
	g := buildFromSrc(t, `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	// Fact: set of statement texts seen on some path (a may-analysis with
	// a finite lattice — the set of nodes in the function).
	type fact map[string]bool
	clone := func(f fact) fact {
		c := make(fact, len(f))
		for k := range f {
			c[k] = true
		}
		return c
	}
	df := &Dataflow[fact]{
		CFG:    g,
		Entry:  fact{},
		Bottom: func() fact { return fact{} },
		Transfer: func(b *Block, in fact) fact {
			out := clone(in)
			for _, n := range b.Nodes {
				out[nodeText(n)] = true
			}
			return out
		},
		Merge: func(a, b fact) fact {
			m := clone(a)
			for k := range b {
				m[k] = true
			}
			return m
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
	ins, err := df.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	exitIn := ins[g.Exit]
	for _, want := range []string{"s := 0", "i < n", "s += i", "i++", "return s"} {
		if !exitIn[want] {
			t.Errorf("exit fact missing %q (got %v)", want, exitIn)
		}
	}
	// The loop head must have absorbed the back-edge: the body's effect
	// appears in its IN fact.
	var head *Block
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if nodeText(n) == "i < n" {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatal("loop head not found")
	}
	if !ins[head]["s += i"] {
		t.Errorf("loop head IN fact missing back-edge contribution: %v", ins[head])
	}
}

// TestSolverNonConvergenceGuard checks the step bound: a transfer
// that never stabilizes must produce an error, not an infinite loop.
func TestSolverNonConvergenceGuard(t *testing.T) {
	g := buildFromSrc(t, `func f(n int) {
	for n > 0 {
		n--
	}
}`)
	df := &Dataflow[int]{
		CFG:    g,
		Entry:  0,
		Bottom: func() int { return 0 },
		// Non-monotone on purpose: the fact grows forever.
		Transfer: func(b *Block, in int) int { return in + 1 },
		Merge:    func(a, b int) int { return a + b },
		Equal:    func(a, b int) bool { return a == b },
	}
	if _, err := df.Solve(); err == nil {
		t.Fatal("expected non-convergence error, got nil")
	}
}
