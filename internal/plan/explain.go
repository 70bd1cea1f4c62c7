package plan

import (
	"fmt"
	"strings"
	"time"
)

// Actuals is one operator's measured execution evidence, supplied by the
// executor's telemetry. The plan package defines the type (rather than
// importing the executor) so rendering stays dependency-free.
type Actuals struct {
	Rows    float64       // actual output cardinality
	Work    float64       // work units charged to this operator alone
	Wall    time.Duration // wall-clock inside the operator
	Batches int64         // batches emitted
	// Zone-map pruning evidence for vectorized scans: blocks covered and
	// blocks skipped without scanning. Rendered only when BlocksTotal > 0.
	BlocksTotal   int64
	BlocksSkipped int64
	// Probed counts the probe rows a hash join read through an index
	// rather than from its probe input. Rendered only when positive.
	Probed int64
}

// RenderAnalyze renders the EXPLAIN ANALYZE view of an executed plan:
// the indented operator tree with estimated vs. actual rows, per-operator
// work units and wall time. lookup maps each node to its measured
// actuals; nodes without telemetry (never reached) render estimates only.
func RenderAnalyze(root *Node, lookup func(*Node) (Actuals, bool)) string {
	var b strings.Builder
	renderTree(&b, root, 0, func(b *strings.Builder, n *Node) {
		a, ok := lookup(n)
		if !ok {
			fmt.Fprintf(b, "  (est=%.0f actual=-)", n.EstCard)
			return
		}
		fmt.Fprintf(b, "  (est=%.0f actual=%.0f work=%.1f time=%s batches=%d",
			n.EstCard, a.Rows, a.Work, a.Wall.Round(time.Microsecond), a.Batches)
		if a.BlocksTotal > 0 {
			fmt.Fprintf(b, " blocks=%d skipped=%d", a.BlocksTotal, a.BlocksSkipped)
		}
		if a.Probed > 0 {
			fmt.Fprintf(b, " probed=%d", a.Probed)
		}
		b.WriteString(")")
	})
	return b.String()
}

// RenderTrace renders the rewrite-pass trace appended to EXPLAIN output:
// one line per pass execution, grouped by fixpoint round. An empty trace
// renders as an empty string.
func RenderTrace(trace []PassTrace) string {
	if len(trace) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("Rewrite passes:\n")
	round := 0
	for _, t := range trace {
		if t.Round != round {
			round = t.Round
			fmt.Fprintf(&b, " round %d:\n", round)
		}
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}
