package adapt

import (
	"math"
	"testing"

	"lqo/internal/plan"
)

func feed(d *Detector, qerr float64, n int) {
	for i := 0; i < n; i++ {
		d.Observe(qerr)
	}
}

func TestDetectorFlagsDegradation(t *testing.T) {
	d := NewDetector(DetectorConfig{Baseline: 10, Window: 10, Ratio: 2, AbsQ: 1e6})
	feed(d, 2, 10) // healthy baseline: geo-q 2
	if d.Stale() {
		t.Fatal("stale before the recent window filled")
	}
	feed(d, 2.5, 10) // mild: below 2× baseline
	if d.Stale() {
		t.Fatalf("stale at recent geo-q %.2f vs baseline %.2f", d.RecentGeoQ(), d.Snapshot().BaselineGeoQ)
	}
	feed(d, 50, 10) // window now all-degraded
	if !d.Stale() {
		t.Fatalf("not stale at recent geo-q %.2f vs baseline %.2f", d.RecentGeoQ(), d.Snapshot().BaselineGeoQ)
	}
	if g := d.Snapshot().BaselineGeoQ; math.Abs(g-2) > 1e-9 {
		t.Fatalf("baseline geo-q = %v, want 2", g)
	}
	if g := d.RecentGeoQ(); math.Abs(g-50) > 1e-9 {
		t.Fatalf("recent geo-q = %v, want 50", g)
	}
}

func TestDetectorAbsoluteBound(t *testing.T) {
	// Baseline itself is terrible; the ratio test alone would never fire,
	// the absolute bound must.
	d := NewDetector(DetectorConfig{Baseline: 4, Window: 4, Ratio: 1e6, AbsQ: 32})
	feed(d, 100, 4)
	feed(d, 100, 4)
	if !d.Stale() {
		t.Fatal("absolute q-error bound did not fire")
	}
}

func TestDetectorRebaseStartsFresh(t *testing.T) {
	d := NewDetector(DetectorConfig{Baseline: 5, Window: 5, Ratio: 2, AbsQ: 1e9})
	feed(d, 2, 5)
	feed(d, 100, 5)
	if !d.Stale() {
		t.Fatal("precondition: detector should be stale")
	}
	d.Rebase()
	if d.Stale() {
		t.Fatal("stale right after rebase")
	}
	// The new regime's level becomes the baseline, however high.
	feed(d, 100, 5)
	feed(d, 110, 5)
	if d.Stale() {
		t.Fatal("flat post-rebase behavior flagged as drift")
	}
	snap := d.Snapshot()
	if !snap.BaselineFull || !snap.RecentFull || snap.Stale {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Observations != 10 {
		t.Fatalf("observations since rebase = %d, want 10", snap.Observations)
	}
}

func TestDetectorDeterministic(t *testing.T) {
	mk := func() *Detector {
		d := NewDetector(DetectorConfig{Baseline: 7, Window: 9, Ratio: 3})
		for i := 0; i < 40; i++ {
			d.Observe(float64(1 + i%13))
		}
		return d
	}
	a, b := mk().Snapshot(), mk().Snapshot()
	if a != b {
		t.Fatalf("same observation sequence, different snapshots:\n%+v\n%+v", a, b)
	}
}

func TestDetectorObservePlanWalksTree(t *testing.T) {
	d := NewDetector(DetectorConfig{Baseline: 3, Window: 3})
	l := plan.NewScan(plan.SeqScan, "a", "a", nil)
	l.EstCard = 10
	r := plan.NewScan(plan.SeqScan, "b", "b", nil)
	r.EstCard = 5
	j := plan.NewJoin(plan.HashJoin, l, r, nil)
	j.EstCard = 100
	d.ObservePlan(j, []float64{1, 10, 50}) // the record, in pre-order: j, l, r
	if snap := d.Snapshot(); snap.Observations != 3 {
		t.Fatalf("observations = %d, want one per plan node (3)", snap.Observations)
	}
	// geo-q of {100, 1, 10} = 10
	if g := d.Snapshot().BaselineGeoQ; math.Abs(g-10) > 1e-9 {
		t.Fatalf("baseline geo-q = %v, want 10", g)
	}
}

func TestDetectorClampsPathological(t *testing.T) {
	d := NewDetector(DetectorConfig{Baseline: 4, Window: 4})
	d.Observe(math.NaN())
	d.Observe(math.Inf(1))
	d.Observe(0.5) // below 1 clamps to 1
	d.Observe(-3)
	g := d.Snapshot().BaselineGeoQ
	if math.IsNaN(g) || math.IsInf(g, 0) {
		t.Fatalf("pathological observations leaked: geo-q = %v", g)
	}
}
