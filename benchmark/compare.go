package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadRuns reads one run file, or every *.json run file of a directory.
func loadRuns(path string) ([]*runFile, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run_*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []*runFile
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(body, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, &rf)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run files", path)
	}
	return runs, nil
}

// side is one metric of one workload over one side's runs.
type side struct {
	vals   []float64
	median float64
	q1, q3 float64
}

func collect(runs []*runFile, workload, metric string) side {
	var s side
	for _, rf := range runs {
		rec := rf.Workloads[workload]
		if rec == nil {
			continue
		}
		if v, ok := rec.EndToEnd[metric]; ok {
			s.vals = append(s.vals, v.Value)
		}
	}
	sorted := sortedCopy(s.vals)
	s.median, s.q1, s.q3 = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
	return s
}

// spreadOf is how far one side's own runs lie apart: the distance
// between their quartiles over the median. One run has no spread to show
// (the spread over its rounds says little about estimators that are
// minima over those rounds), so its verdicts rest on the change alone.
func (s side) spreadOf() float64 {
	if len(s.vals) < 2 || s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// seedHashes maps each seed one side ran a workload with to the
// op-sequence hash it ran.
func seedHashes(runs []*runFile, workload string) map[int64]string {
	out := map[int64]string{}
	for _, rf := range runs {
		if rec := rf.Workloads[workload]; rec != nil {
			out[rf.Env.Seed] = rec.OpsHash
		}
	}
	return out
}

// compareRuns prints, for every workload and end-to-end metric, both
// sides' medians and quartiles, the relative change, the bound and a
// verdict: worse when the new median is worse than the old by more than
// the bound, unresolved when either side's own runs lie further apart
// than the bound (the change, whatever it reads, is not resolved), ok
// otherwise. When both sides ran a workload with the same seeds they ran
// the same ops, and each metric is held to its same-seed bound; otherwise
// to the looser bound across seeds, and the metrics that hinge on the
// seed are not judged. The same seed with different op sequences means
// the two sides did not run the same benchmark: that is an error, not a
// verdict. It reports whether anything was worse.
func compareRuns(w io.Writer, oldPath, newPath string) (bool, error) {
	olds, err := loadRuns(oldPath)
	if err != nil {
		return false, err
	}
	news, err := loadRuns(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %d run(s) of %s   new: %d run(s) of %s\n", len(olds), oldPath, len(news), newPath)
	if len(olds) < 2 || len(news) < 2 {
		fmt.Fprintln(w, "a side with one run has no run-to-run spread to show: its verdicts rest on the change alone")
	}
	fmt.Fprintf(w, "%-13s %-22s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "old median", "[q1, q3]", "new median", "[q1, q3]", "change", "bound", "verdict")
	anyWorse := false
	for _, sp := range specs() {
		oldSeeds, newSeeds := seedHashes(olds, sp.Name), seedHashes(news, sp.Name)
		sameSeeds := len(oldSeeds) == len(newSeeds)
		for seed, hash := range newSeeds {
			was, ok := oldSeeds[seed]
			if ok && was != hash {
				return false, fmt.Errorf("%s seed %d: the two sides ran different op sequences (%s, %s); they are not runs of the same benchmark", sp.Name, seed, was, hash)
			}
			sameSeeds = sameSeeds && ok
		}
		if len(newSeeds) > 0 && len(oldSeeds) > 0 {
			fmt.Fprintf(w, "%-13s same seeds on both sides: %v\n", sp.Name, sameSeeds)
		}
		for _, d := range endToEnd {
			o, n := collect(olds, sp.Name, d.Name), collect(news, sp.Name, d.Name)
			if len(o.vals) == 0 || len(n.vals) == 0 {
				continue
			}
			absolute := d.Name == "fail_ratio"
			bound := d.Bound
			if !sameSeeds && !absolute {
				bound = d.Across
			}
			// worsening > 0 means the new side is worse.
			worsening := n.median - o.median
			if d.Better == "higher" {
				worsening = -worsening
			}
			rel := worsening
			if !absolute && o.median != 0 {
				rel = worsening / o.median
			}
			verdict := "ok"
			switch {
			case bound == 0 && !absolute:
				verdict = "not judged across seeds"
			case rel > bound:
				verdict = "worse"
				anyWorse = true
			case max(o.spreadOf(), n.spreadOf()) > bound && !absolute:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-13s %-22s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.1f%% %5.1f%%  %s\n",
				sp.Name, d.Name, o.median, o.q1, o.q3, n.median, n.q1, n.q3, 100*rel, 100*bound, verdict)
		}
	}
	return anyWorse, nil
}
