// Regression: show a learned optimizer regressing on individual queries
// and Eraser eliminating those regressions as a plugin — Section 2.2.2 of
// the tutorial in ~80 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/learnedopt"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

func main() {
	cat := datagen.StatsCEB(datagen.Config{Seed: 21, Scale: 0.06})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 21})
	ex := exec.New(cat)
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 21}); err != nil {
		log.Fatal(err)
	}
	base := opt.New(cat, cost.New(cs), hist)

	labeled, err := workload.GenLabeled(cat, exec.NewCardCache(ex), workload.Options{
		Seed: 21, Count: 90, MaxJoins: 3, MaxPreds: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	var train, test = queries(labeled[:60]), queries(labeled[60:])
	ctx := context.Background()
	lc := &learnedopt.Context{Cat: cat, Stats: cs, Ex: ex, Base: base, Workload: train, Seed: 21}

	// The learned optimizer: Bao with the paper's tree-convolution value
	// model, which regresses more readily at small training scale.
	bao := learnedopt.NewBaoTreeConv()
	if err := bao.Train(ctx, lc); err != nil {
		log.Fatal(err)
	}
	// Eraser wraps the SAME trained model.
	eraser := learnedopt.NewEraser(bao)
	eraser.InnerTrained = true
	if err := eraser.Train(ctx, lc); err != nil {
		log.Fatal(err)
	}

	native := learnedopt.NewNative()
	if err := native.Train(ctx, lc); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-4s %12s %12s %12s %9s\n", "q#", "native", "bao", "eraser+bao", "bao rel")
	var regBao, regEraser int
	for i, q := range test {
		nat := run(ctx, ex, native, q)
		bo := run(ctx, ex, bao, q)
		er := run(ctx, ex, eraser, q)
		rel := bo / nat
		if rel > 1.2 {
			regBao++
		}
		if er/nat > 1.2 {
			regEraser++
		}
		marker := ""
		if rel > 1.2 {
			marker = "  ← regression"
		}
		fmt.Printf("%-4d %12.0f %12.0f %12.0f %8.2fx%s\n", i, nat, bo, er, rel, marker)
	}
	fmt.Printf("\nregressions >20%%: bao=%d, eraser+bao=%d\n", regBao, regEraser)
}

func queries(ls []workload.Labeled) []*query.Query {
	out := make([]*query.Query, len(ls))
	for i, l := range ls {
		out[i] = l.Q
	}
	return out
}

func run(ctx context.Context, ex *exec.Executor, o learnedopt.Optimizer, q *query.Query) float64 {
	p, err := o.Plan(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	lat, err := learnedopt.Measure(ctx, ex, q, p)
	if err != nil {
		log.Fatal(err)
	}
	return lat
}
