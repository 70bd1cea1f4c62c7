package bench

import (
	"math"
	"testing"

	"lqo/internal/pilotscope"
)

func TestCheckSteered(t *testing.T) {
	native := &pilotscope.Result{Count: 7, Value: 0.5, Latency: 100}
	for _, c := range []struct {
		name    string
		steered *pilotscope.Result
		ok      bool
	}{
		{"same answer, other plan cost", &pilotscope.Result{Count: 7, Value: 0.5, Latency: 40}, true},
		{"count differs", &pilotscope.Result{Count: 8, Value: 0.5, Latency: 100}, false},
		{"value differs in the last bit", &pilotscope.Result{Count: 7, Value: math.Nextafter(0.5, 1), Latency: 100}, false},
	} {
		if err := checkSteered("bao", 0, native, c.steered); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
