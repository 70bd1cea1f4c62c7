package guard

import (
	"math"
	"testing"
	"time"

	"lqo/internal/query"
)

// fixedEstimator always answers the same cardinality.
type fixedEstimator struct{ card float64 }

func (f *fixedEstimator) Estimate(q *query.Query) float64 { return f.card }

func drawSequence(seed int64, rate float64, n int) []Fault {
	in := NewInjector(ChaosConfig{Rate: rate, Seed: seed})
	out := make([]Fault, n)
	for i := range out {
		out[i] = in.next(estimatorFaults)
	}
	return out
}

func TestInjectorDeterministicForSeed(t *testing.T) {
	a := drawSequence(42, 0.5, 200)
	b := drawSequence(42, 0.5, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault stream diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := drawSequence(43, 0.5, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestInjectorRateZeroNeverFaults(t *testing.T) {
	in := NewInjector(ChaosConfig{Rate: 0, Seed: 7})
	for i := 0; i < 500; i++ {
		if f := in.next(estimatorFaults); f != FaultNone {
			t.Fatalf("rate 0 injected %v at call %d", f, i)
		}
	}
}

func TestInjectorRateOneAlwaysFaults(t *testing.T) {
	in := NewInjector(ChaosConfig{Rate: 1, Seed: 7})
	for i := 0; i < 100; i++ {
		if f := in.next(estimatorFaults); f == FaultNone {
			t.Fatalf("rate 1 skipped a fault at call %d", i)
		}
	}
}

func TestChaosEstimatorFaultValues(t *testing.T) {
	base := &fixedEstimator{card: 123}
	// Rate 1 forces a fault every call; walk until each estimator fault
	// mode has been observed.
	ce := &ChaosEstimator{Base: base, In: NewInjector(ChaosConfig{Rate: 1, Seed: 1, Hang: time.Microsecond})}
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					seen["panic"] = true
				}
			}()
			v := ce.Estimate(nil)
			switch {
			case math.IsNaN(v):
				seen["nan"] = true
			case math.IsInf(v, 1):
				seen["inf"] = true
			case v == 0:
				seen["zero"] = true
			case v >= 1e29:
				seen["huge"] = true
			case v == 123:
				// hang mode delegates to the base after stalling
				seen["delegated"] = true
			}
		}()
	}
	for _, want := range []string{"nan", "inf", "zero", "huge", "panic"} {
		if !seen[want] {
			t.Errorf("fault mode %q never observed", want)
		}
	}
}

func TestChaosEstimatorRateZeroDelegates(t *testing.T) {
	ce := &ChaosEstimator{Base: &fixedEstimator{card: 9}, In: NewInjector(ChaosConfig{Rate: 0, Seed: 1})}
	for i := 0; i < 50; i++ {
		if v := ce.Estimate(nil); v != 9 {
			t.Fatalf("rate 0 altered estimate: %v", v)
		}
	}
}

func TestFaultStrings(t *testing.T) {
	want := map[Fault]string{
		FaultNone: "none", FaultNaN: "nan", FaultInf: "inf", FaultZero: "zero",
		FaultHuge: "huge", FaultError: "error", FaultPanic: "panic", FaultHang: "hang",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("Fault(%d).String() = %q, want %q", int(f), f.String(), s)
		}
	}
}
