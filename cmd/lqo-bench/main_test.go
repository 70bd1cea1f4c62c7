package main

import (
	"io"
	"slices"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	known := ids()
	if len(known) == 0 {
		t.Fatal("no experiments registered")
	}
	first, last := known[0], known[len(known)-1]
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"all", known},
		{last, []string{last}},
		{" " + strings.ToLower(last) + " ," + first, []string{first, last}},
	} {
		exps, err := selectExperiments(tc.spec)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		var got []string
		for _, e := range exps {
			got = append(got, e.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q selects %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{"E13", "E5x", first + ",E17", ""} {
		_, err := selectExperiments(spec)
		if err == nil {
			t.Errorf("%q: unknown id accepted", spec)
		} else if !strings.Contains(err.Error(), strings.Join(known, ", ")) {
			t.Errorf("%q: error %q does not name the known ids", spec, err)
		}
	}
}

// TestBadInvocationExits2 checks that every malformed invocation exits 2
// before any experiment runs: an unknown scale, experiment id or flag
// (including the per-experiment flags the fixed parameters replaced) and
// a stray argument.
func TestBadInvocationExits2(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		mention string
	}{
		{[]string{"-scale", "fulll", "-exp", "E9"}, "quick, full"},
		{[]string{"-scale", "", "-exp", "E9"}, "quick, full"},
		{[]string{"-exp", "E42"}, "E1, E2"},
		{[]string{"-load-qps", "100", "-exp", "E14"}, "-load-qps"},
		{[]string{"-exp", "E9", "-parallel", "4"}, "-parallel"},
		{[]string{"-chaos"}, "-chaos"},
		{[]string{"-exp", "E1", "E3"}, `"E3"`},
	} {
		var stderr strings.Builder
		if code := run(tc.args, io.Discard, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.mention) {
			t.Errorf("%q: stderr %q does not mention %q", tc.args, stderr.String(), tc.mention)
		}
	}
}

// TestHelpListsOnlyTheFourFlags pins the command's whole surface: -h
// exits 0 and lists -exp, -dataset, -scale and -seed, and nothing else.
func TestHelpListsOnlyTheFourFlags(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-h"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	var flags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f, ok := strings.CutPrefix(strings.TrimSpace(line), "-"); ok {
			flags = append(flags, strings.Fields(f)[0])
		}
	}
	if want := []string{"dataset", "exp", "scale", "seed"}; !slices.Equal(flags, want) {
		t.Errorf("-h lists flags %v, want %v:\n%s", flags, want, stderr.String())
	}
}
