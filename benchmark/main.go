// Command benchmark is the repository's benchmark: five serving workloads
// driven through serve.Server's public API in a closed loop with one
// client, end-to-end metrics from untraced rounds, and a separate traced
// run that decomposes the request path layer by layer. See README.md.
//
//	go run ./benchmark -seed 42 -out run.json          all workloads, traced run included
//	go run ./benchmark --workload hit_adhoc --seed 7 --seconds 10 --trace 0
//	go run ./benchmark -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// protocol is how long and how often a workload is measured.
type protocol struct {
	// Passes is how often each workload is set up from scratch and
	// measured. In an all-workloads run the passes interleave (A B C D E,
	// A B C D E, ...), so a noisy neighbour that lasts seconds hits at
	// most a third of any workload's rounds.
	Passes int
	// MinRounds per pass: 21 rounds in all, so the best round and each
	// op's minimum are taken over at least twenty.
	MinRounds int
	// Seconds of timed rounds per workload, split over the passes.
	Seconds float64
	// Setups is how many from-scratch set-ups setup_s is the median of,
	// unless three seconds of set-up are reached first: PR 11 timed 8 ms
	// set-ups once and two runs of the same code differed by 21 %.
	Setups int
}

func defaultProtocol(seconds float64) protocol {
	return protocol{Passes: 3, MinRounds: 7, Seconds: seconds, Setups: 15}
}

// commit is set by run.sh at link time; go run falls back to the build's
// VCS stamp.
var commit string

// envRecord is the environment every output file carries, so that two
// files can be told apart before their numbers are compared.
type envRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       int     `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Workers    int     `json:"executor_workers"`
	Shards     int     `json:"optimizer_shards"`
	Serve      string  `json:"serve_config"`
}

// workloadRecord is one workload's result with its noise record.
type workloadRecord struct {
	Why            string           `json:"why"`
	OpsHash        string           `json:"ops_hash"`
	OpsPerRound    int              `json:"ops_per_round"`
	Rounds         int              `json:"rounds"`
	SetupSamples   int              `json:"setup_samples"`
	SetupS         []float64        `json:"setup_s"`         // every from-scratch set-up, in order
	LatencySamples int              `json:"latency_samples"` // ops the percentiles are taken over
	TimedSeconds   float64          `json:"timed_seconds"`
	BestRoundQPS   float64          `json:"best_round_qps"`
	RoundQPS       []float64        `json:"round_qps"` // every timed round, in order
	RoundCPUMs     []float64        `json:"round_cpu_ms_per_query"`
	Noisy          bool             `json:"noisy"`
	UnstableRounds int              `json:"unstable_rounds"`
	Attempted      int              `json:"attempted"`
	Failed         int              `json:"failed"`
	FirstFailure   string           `json:"first_failure,omitempty"`
	EndToEnd       map[string]value `json:"end_to_end,omitempty"`
	PerLayer       map[string]value `json:"per_layer,omitempty"`
}

type runFile struct {
	Env       envRecord                  `json:"env"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// setProtocol pins what the run protocol fixes for every workload.
func setProtocol(seed int64, seconds float64) envRecord {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return envRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GOGC: 100, GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds,
		Clients: 1, Workers: 1, Shards: 0, Serve: "serve.Config{} defaults",
	}
}

func (m *measurement) record() *workloadRecord {
	return &workloadRecord{
		Why: m.p.Spec.Why, OpsHash: m.p.OpsHash, OpsPerRound: len(m.minLat), Rounds: len(m.qps),
		SetupSamples: len(m.setups), SetupS: m.setups, LatencySamples: len(m.minLat), TimedSeconds: m.timed, BestRoundQPS: m.bestRoundQPS(), RoundQPS: m.qps, RoundCPUMs: m.cpuMs,
		Noisy: m.noisy(), UnstableRounds: m.unstable, Attempted: m.attempted, Failed: m.failed, FirstFailure: m.failure,
	}
}

// measureTraced makes the traced run of one workload: one set-up, then
// untraced rounds alternating with replays through the decomposed path
// until the protocol's seconds are spent, then one replay counting
// allocations. Alternating lets both see the same minutes of the machine:
// their ratio is then not a ratio of two noise levels.
func measureTraced(ctx context.Context, p *prep, pr protocol, outDir string) (*workloadRecord, error) {
	m := &measurement{p: p}
	e, err := m.setupSample(ctx)
	if err != nil {
		return nil, err
	}
	run := newTracedRun(e)
	var last *round
	start := time.Now()
	for n := 0; n < pr.MinRounds || time.Since(start).Seconds() < pr.Seconds; n++ {
		if last, err = m.round(ctx, e); err != nil {
			return nil, err
		}
		if err := run.replay(ctx, m.first); err != nil {
			return nil, err
		}
	}
	tr, err := run.finish(ctx, m.first)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(outDir, p, tr.spans); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rec := m.record()
	rec.PerLayer = perLayerMetrics(p, m, tr, last)
	return rec, nil
}

func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(w, "%-13s %-28s %14.6g %-6s", workload, d.Name, v.Value, v.Unit)
		if v.Spread > 0 {
			fmt.Fprintf(w, " in-run spread %.1f%%", 100*v.Spread)
		}
		fmt.Fprintln(w)
	}
}

func printNoise(w io.Writer, name string, r *workloadRecord) {
	fmt.Fprintf(w, "%-13s ops/round=%d rounds=%d setup-samples=%d latency-samples=%d timed=%.1fs ops-hash=%s noisy=%v unstable-rounds=%d failed=%d/%d\n",
		name, r.OpsPerRound, r.Rounds, r.SetupSamples, r.LatencySamples, r.TimedSeconds, r.OpsHash, r.Noisy, r.UnstableRounds, r.Failed, r.Attempted)
	if r.FirstFailure != "" {
		fmt.Fprintf(w, "%-13s first failure: %s\n", name, r.FirstFailure)
	}
}

func writeRun(path string, rf *runFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// measureEndToEnd makes the untraced passes of the given workloads,
// interleaved, and returns each workload's record with its end-to-end
// metrics.
func measureEndToEnd(ctx context.Context, ps []*prep, pr protocol) ([]*workloadRecord, error) {
	ms := make([]*measurement, len(ps))
	for i, p := range ps {
		ms[i] = &measurement{p: p}
	}
	for pass := 0; pass < pr.Passes; pass++ {
		for _, m := range ms {
			if err := m.pass(ctx, pr.Seconds/float64(pr.Passes), pr.MinRounds); err != nil {
				return nil, fmt.Errorf("%s: %w", m.p.Spec.Name, err)
			}
		}
	}
	recs := make([]*workloadRecord, len(ms))
	for i, m := range ms {
		if err := m.moreSetups(ctx, pr.Setups); err != nil {
			return nil, fmt.Errorf("%s: %w", m.p.Spec.Name, err)
		}
		recs[i] = m.record()
		recs[i].EndToEnd = m.endToEnd()
	}
	return recs, nil
}

// runAll is the all-workloads run: interleaved untraced passes, then the
// traced run of each workload.
func runAll(ctx context.Context, w io.Writer, sps []spec, seed int64, pr protocol, outDir string) (*runFile, error) {
	rf := &runFile{Env: setProtocol(seed, pr.Seconds), Workloads: map[string]*workloadRecord{}}
	ps := make([]*prep, len(sps))
	for i, sp := range sps {
		p, err := buildPrep(ctx, sp, seed)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	recs, err := measureEndToEnd(ctx, ps, pr)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		name := sps[i].Name
		tr, err := measureTraced(ctx, ps[i], protocol{MinRounds: pr.MinRounds, Seconds: pr.Seconds / 2}, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", name, err)
		}
		rec.PerLayer = tr.PerLayer
		rf.Workloads[name] = rec
		printNoise(w, name, rec)
		printMetrics(w, name, endToEnd, rec.EndToEnd)
		printMetrics(w, name, perLayer, rec.PerLayer)
	}
	return rf, nil
}

// driverResult is the one-line result the benchmark driver reads.
type driverResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne is the driver's entry: one workload, end-to-end metrics
// (trace 0) or the per-layer metrics of a traced run (trace 1).
func runOne(ctx context.Context, w io.Writer, sp spec, seed int64, pr protocol, trace bool, outDir string) (*runFile, error) {
	rf := &runFile{Env: setProtocol(seed, pr.Seconds), Workloads: map[string]*workloadRecord{}}
	p, err := buildPrep(ctx, sp, seed)
	if err != nil {
		return nil, err
	}
	var rec *workloadRecord
	res := driverResult{Metrics: map[string]value{}}
	if trace {
		if rec, err = measureTraced(ctx, p, pr, outDir); err != nil {
			return nil, err
		}
		printNoise(w, sp.Name, rec)
		printMetrics(w, sp.Name, perLayer, rec.PerLayer)
		for k, v := range rec.PerLayer {
			res.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
		}
	} else {
		recs, err := measureEndToEnd(ctx, []*prep{p}, pr)
		if err != nil {
			return nil, err
		}
		rec = recs[0]
		printNoise(w, sp.Name, rec)
		printMetrics(w, sp.Name, endToEnd, rec.EndToEnd)
		for _, d := range endToEnd {
			if v := rec.EndToEnd[d.Name]; d.Across > 0 {
				res.Metrics[d.Name] = value{Value: v.Value, Unit: v.Unit}
			}
		}
	}
	rf.Workloads[sp.Name] = rec
	res.Attempted, res.Failed = rec.Attempted, rec.Failed
	// Correct is about answers: every reply matched the reference. Rounds
	// that answered rightly but with another plan than the first round's
	// are in the noise record (unstable_rounds).
	res.Correct = rec.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return rf, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and end with the driver's one-line JSON result (default: all five)")
	seed := fs.Int64("seed", 42, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "seconds of timed rounds per workload")
	trace := fs.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 makes the traced run and prints per-layer metrics")
	out := fs.String("out", "", "output file (default benchmark/out/run_*.json)")
	compare := fs.Bool("compare", false, "compare two run files or directories of run files: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare OLD NEW")
			return 2
		}
		worse, err := compareRuns(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	outDir := filepath.Join("benchmark", "out")
	ctx := context.Background()
	var rf *runFile
	var err error
	path := *out
	if *workload == "" {
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("run_seed%d.json", *seed))
		}
		rf, err = runAll(ctx, stdout, specs(), *seed, defaultProtocol(*seconds), outDir)
	} else {
		sp, ok := specByName(*workload)
		if !ok {
			var names []string
			for _, s := range specs() {
				names = append(names, s.Name)
			}
			sort.Strings(names)
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", *workload, names)
			return 2
		}
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("run_%s_seed%d_trace%d.json", sp.Name, *seed, *trace))
		}
		rf, err = runOne(ctx, stdout, sp, *seed, defaultProtocol(*seconds), *trace != 0, outDir)
	}
	if err == nil {
		err = writeRun(path, rf)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
