package main

import (
	"maps"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	known := []string{"E1", "E9", "E10"}
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"all", known},
		{"E9", []string{"E9"}},
		{" e1 ,E10", []string{"E1", "E10"}},
	} {
		got, err := selectExperiments(tc.spec, known)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		want := map[string]bool{}
		for _, id := range tc.want {
			want[id] = true
		}
		if !maps.Equal(got, want) {
			t.Errorf("%q selects %v, want %v", tc.spec, got, want)
		}
	}
	for _, spec := range []string{"E13", "E5x", "E1,E17", ""} {
		_, err := selectExperiments(spec, known)
		if err == nil {
			t.Errorf("%q: unknown id accepted", spec)
		} else if !strings.Contains(err.Error(), "E1, E9, E10") {
			t.Errorf("%q: error %q does not name the known ids", spec, err)
		}
	}
}
