package bench

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestE10ChaosFullAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	env, err := NewEnv("stats", Scale{Data: 0.04, Train: 12, Test: 30, Episodes: 20}, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e10Chaos(context.Background(), env, chaosOptions{
		Rates:   []float64{0, 0.10, 0.40},
		Timeout: 2 * time.Millisecond,
		Hang:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	var faults, trips int
	for _, row := range rep.Rows {
		// Column 1 is availability: the guardrail contract is 100% at
		// every fault rate.
		if row[1] != "100.0%" {
			t.Fatalf("rate %s availability = %s, want 100.0%%\n%s", row[0], row[1], rep.String())
		}
		n, err := strconv.Atoi(row[4])
		if err != nil {
			t.Fatalf("trips cell %q: %v", row[4], err)
		}
		trips += n
		for _, col := range []int{5, 6, 7} { // timeouts, panics, errors
			v, err := strconv.Atoi(row[col])
			if err != nil {
				t.Fatalf("cell %q: %v", row[col], err)
			}
			faults += v
		}
	}
	if faults == 0 {
		t.Fatalf("no faults observed across 10%%/40%% rates:\n%s", rep.String())
	}
	if trips == 0 {
		t.Fatalf("breaker never tripped despite injected faults:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "avail") {
		t.Fatal("report missing availability note")
	}
}

func TestE10ChaosZeroRateUsesLearnedPath(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	env, err := NewEnv("stats", tinyScale(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// A generous decision budget so cold-start planning never times out:
	// at rate 0 every query must be served by the learned path.
	rep, err := e10Chaos(context.Background(), env, chaosOptions{Rates: []float64{0}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if row[1] != "100.0%" {
		t.Fatalf("availability = %s", row[1])
	}
	if row[2] != strconv.Itoa(len(env.Test)) {
		t.Fatalf("learned = %s, want %d\n%s", row[2], len(env.Test), rep.String())
	}
	if row[3] != "0" {
		t.Fatalf("fallbacks = %s, want 0", row[3])
	}
}

// TestE10ChaosDeterministic runs E10 twice at one seed: every column but
// the wall-clock planning tail must repeat. The injector's fault sequence
// is seeded, and the planner joins an abandoned learned attempt before
// the next query plans, so no attempt draws another query's faults.
func TestE10ChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	env, err := NewEnv("stats", Scale{Data: 0.04, Train: 12, Test: 30, Episodes: 20}, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Only hangs overrun the budget, even under the race detector, and a
	// hang loses to the watchdog by 5 ms. A hang just past the budget
	// resumes while the next query plans: an unjoined attempt would then
	// draw that query's faults.
	opts := chaosOptions{Rates: []float64{0.10, 0.40}, Timeout: 100 * time.Millisecond, Hang: 105 * time.Millisecond}
	var runs [2][][]string
	for i := range runs {
		rep, err := e10Chaos(context.Background(), env, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			runs[i] = append(runs[i], row[:len(row)-1]) // all but plan p99 us
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("same seed, different rows:\n%v\n%v", runs[0], runs[1])
	}
}
