// Quickstart: load a benchmark database, parse SQL, optimize it with the
// traditional volcano-style optimizer, execute the plan, and inspect true
// vs. estimated cardinalities — the loop every learned component in the
// workbench plugs into.
package main

import (
	"context"
	"fmt"
	"log"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

func main() {
	// 1. Generate the STATS-like benchmark database (Zipf skew, correlated
	//    attributes, FK fan-out — everything that defeats independence
	//    assumptions).
	cat := datagen.StatsCEB(datagen.Config{Seed: 1, Scale: 0.1})
	fmt.Printf("database: %d tables, %d rows\n", len(cat.TableNames()), cat.TotalRows())

	// 2. Collect statistics and assemble the native optimizer.
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 1})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 1}); err != nil {
		log.Fatal(err)
	}
	optimizer := opt.New(cat, cost.New(cs), hist)
	executor := exec.New(cat)

	// 3. Parse a join query.
	sql := `SELECT COUNT(*) FROM users u, posts p, comments c
	        WHERE p.owner_user_id = u.id AND c.post_id = p.id
	          AND u.reputation > 500 AND p.score >= 2;`
	q, err := sqlx.Parse(sql, cat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nquery:", q.SQL())

	// 4. Optimize and execute. The context bounds both; a server would
	//    pass each request's deadline here.
	ctx := context.Background()
	p, err := optimizer.OptimizeCtx(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	// RunAnalyze annotates the plan's TrueCard for the printout below.
	res, _, err := executor.RunAnalyze(ctx, q, p)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Inspect the plan: estimated vs. true cardinality per node is the
	//    raw material of the entire learned-optimizer field.
	fmt.Println("\nchosen plan (est = histogram estimate, true = executed):")
	fmt.Print(p)
	fmt.Printf("\nresult: COUNT(*) = %d, measured work = %.0f units\n", res.Count, res.Stats.WorkUnits)
	fmt.Printf("root misestimate: %0.1fx\n", qerr(p.EstCard, p.TrueCard))
}

func qerr(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}
