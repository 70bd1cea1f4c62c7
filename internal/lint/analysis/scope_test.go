package analysis

import "testing"

func TestScopeContains(t *testing.T) {
	allow := Scope{Include: []string{"lqo/internal/data"}}
	deny := Scope{Exclude: []string{"lqo/internal/data"}}
	both := Scope{Include: []string{"lqo/internal"}, Exclude: []string{"lqo/internal/lint"}}
	for _, c := range []struct {
		s    Scope
		path string
		want bool
	}{
		{allow, "lqo/internal/data", true},
		{allow, "lqo/internal/data/sub", true},
		{allow, "lqo/internal/datagen", false},
		{allow, "lqo/cmd/lqo-lint", false},
		{allow, "floateq_a", true}, // fixtures are always in scope
		{deny, "lqo/internal/data", false},
		{deny, "lqo/internal/datagen", true},
		{deny, "lqo/cmd/lqo-lint", true},
		{both, "lqo/internal/exec", true},
		{both, "lqo/internal/lint/bufown", false},
		{both, "lqo/examples/quickstart", false},
		{Scope{}, "lqo/examples/quickstart", true},
	} {
		if got := c.s.Contains(c.path); got != c.want {
			t.Errorf("%+v.Contains(%q) = %v, want %v", c.s, c.path, got, c.want)
		}
	}
}
