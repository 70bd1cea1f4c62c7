// Command lqo-bench regenerates the workbench's experiment tables E1–E3,
// E5–E10 and E14–E16 (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results; E5 judges every learned planner).
// Every experiment runs with the fixed parameters of bench.Experiments,
// so a table depends only on the four flags below. An unknown experiment
// id (the retired E4 included), scale or flag exits 2.
//
// Usage:
//
//	lqo-bench -exp all                 # every experiment, quick scale, seed 42
//	lqo-bench -exp E1,E3 -dataset job  # selected experiments
//	lqo-bench -exp E5 -scale full      # DESIGN.md-scale run (slow)
//	lqo-bench -exp E10 -seed 7         # another seed
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"lqo/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and returns the exit
// status: 0 on success, 1 if an experiment fails, 2 on a bad invocation.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lqo-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag     = fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(ids(), ", ")+") or 'all'")
		datasetFlag = fs.String("dataset", "stats", "dataset: stats | job | tpch")
		scaleFlag   = fs.String("scale", "quick", "scale: quick | full")
		seedFlag    = fs.Int64("seed", 42, "master random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lqo-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	sc, err := parseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(stderr, "lqo-bench:", err)
		return 2
	}
	exps, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintln(stderr, "lqo-bench:", err)
		return 2
	}

	ctx := context.Background()
	for _, e := range exps {
		// Fresh environment per experiment: E2, E15 and E16 mutate the
		// catalog, and models must never leak across experiments.
		env, err := bench.NewEnv(*datasetFlag, sc, *seedFlag)
		if err != nil {
			fmt.Fprintln(stderr, "lqo-bench:", err)
			return 1
		}
		start := time.Now()
		rep, err := e.Run(ctx, env)
		if err != nil {
			fmt.Fprintf(stderr, "lqo-bench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(stdout, rep.String())
		fmt.Fprintf(stdout, "(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// parseScale resolves a -scale value; anything but quick or full is an
// error, so a typo never runs the wrong tables.
func parseScale(s string) (bench.Scale, error) {
	switch s {
	case "quick":
		return bench.QuickScale(), nil
	case "full":
		return bench.FullScale(), nil
	}
	return bench.Scale{}, fmt.Errorf("unknown scale %q (known: quick, full)", s)
}

// selectExperiments resolves an -exp value against bench.Experiments:
// "all" selects every one, otherwise a comma-separated list (case and
// surrounding space ignored), run in table order. An unknown id is an
// error naming the known ones, so a typo never exits 0 having run
// nothing.
func selectExperiments(spec string) ([]bench.Experiment, error) {
	if spec == "all" {
		return bench.Experiments, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(ids(), id) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s, or all)", id, strings.Join(ids(), ", "))
		}
		want[id] = true
	}
	var out []bench.Experiment
	for _, e := range bench.Experiments {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// ids lists the registered experiment ids in table order.
func ids() []string {
	out := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		out[i] = e.ID
	}
	return out
}
