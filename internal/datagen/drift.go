package datagen

import (
	"math"
	"math/rand"

	"lqo/internal/data"
)

// DriftOptions controls ApplyDrift.
type DriftOptions struct {
	Seed int64
	// Fraction of current rows to append per table (e.g. 0.3 appends 30%).
	Fraction float64
	// ValueSkew, when > 0, re-draws appended non-key integer attribute
	// values from the table's existing domain with a power-law hot spot at
	// the TOP of the domain. The t0 generators concentrate mass at the
	// bottom (Zipf), so this flips which values are frequent without
	// growing the domain — marginal-distribution drift that invalidates
	// learned selectivities while every histogram bucket stays in range.
	// Larger values concentrate harder (1.5–4 is the useful band).
	ValueSkew float64
	// DomainShift is the probability in [0,1] that an appended non-key
	// attribute value is drawn from a previously unseen region above the
	// old maximum — domain growth that leaves t0 statistics and models
	// with zero coverage (the "new products appeared" failure mode of
	// the dynamic-data CE studies). Applies to Int and Float attributes.
	DomainShift float64
}

// ApplyDrift appends Fraction new rows to every table in cat, drawn by
// resampling existing rows and scaling non-key float attributes, and —
// the part that hurts stale models most — re-drawing foreign keys
// *uniformly* over their existing domain, which flips the Zipf join
// fan-out the models memorized. It models the dynamic-data setting of [61]/[25]/[29]: the
// joint and join distributions move and stale models go wrong. Primary
// keys continue their sequence so referential structure stays valid.
// Indexes are rebuilt.
//
// Beyond table growth, two value-distribution drift axes are available:
// ValueSkew relocates the frequent values inside the existing domain and
// DomainShift grows the domain itself (see DriftOptions). Both modes
// consume extra randomness only when enabled, so runs using only the
// legacy growth options are byte-identical to earlier releases at the
// same seed.
func ApplyDrift(cat *data.Catalog, opts DriftOptions) {
	rng := rand.New(rand.NewSource(opts.Seed))
	if opts.Fraction <= 0 {
		return
	}
	for _, name := range cat.TableNames() {
		t := cat.Table(name)
		n := t.NumRows()
		add := int(float64(n) * opts.Fraction)
		// FK domains: max existing value per key column (values stay valid
		// references because referenced ids are dense 0..max).
		fkMax := map[string]int64{}
		// Attribute domains, for the value-distribution drift modes.
		domain := map[string][2]int64{}    // int attr -> {min, max}
		fdomain := map[string][2]float64{} // float attr -> {min, max}
		for _, c := range t.Cols {
			switch {
			case hasSuffix(c.Name, "_id"):
				mx := int64(0)
				for _, v := range c.Ints {
					if v > mx {
						mx = v
					}
				}
				fkMax[c.Name] = mx
			case c.Name == "id":
				// PK continues its sequence; no domain needed.
			case c.Kind == data.Float:
				if opts.DomainShift > 0 && len(c.Flts) > 0 {
					lo, hi := c.Flts[0], c.Flts[0]
					for _, v := range c.Flts {
						if v < lo {
							lo = v
						}
						if v > hi {
							hi = v
						}
					}
					fdomain[c.Name] = [2]float64{lo, hi}
				}
			default:
				if (opts.ValueSkew > 0 || opts.DomainShift > 0) && len(c.Ints) > 0 {
					lo, hi := c.Ints[0], c.Ints[0]
					for _, v := range c.Ints {
						if v < lo {
							lo = v
						}
						if v > hi {
							hi = v
						}
					}
					domain[c.Name] = [2]int64{lo, hi}
				}
			}
		}
		for k := 0; k < add; k++ {
			src := rng.Intn(n)
			for _, c := range t.Cols {
				switch {
				case c.Name == "id":
					c.AppendInt(int64(c.Len()))
				case hasSuffix(c.Name, "_id"):
					// Re-draw with the Zipf hot spot moved to the OTHER end
					// of the key domain: keys that were cold become hot, so
					// the fan-out distribution stale models memorized is
					// wrong while overall skew stays realistic.
					mx := fkMax[c.Name]
					v := mx - int64(float64(mx)*math.Pow(rng.Float64(), 3))
					c.AppendInt(v)
				case c.Kind == data.Float:
					if opts.DomainShift > 0 && rng.Float64() < opts.DomainShift {
						d := fdomain[c.Name]
						span := d[1] - d[0]
						if span <= 0 {
							span = 1
						}
						c.AppendFloat(d[1] + rng.Float64()*span)
						continue
					}
					c.AppendFloat(c.Flts[src] * (1.2 + rng.Float64()*0.6))
				default:
					if opts.DomainShift > 0 && rng.Float64() < opts.DomainShift {
						d := domain[c.Name]
						span := d[1] - d[0]
						if span < 8 {
							span = 8
						}
						c.AppendInt(d[1] + 1 + int64(rng.Int63n(span)))
						continue
					}
					if opts.ValueSkew > 0 {
						d := domain[c.Name]
						width := float64(d[1] - d[0])
						c.AppendInt(d[1] - int64(width*math.Pow(rng.Float64(), opts.ValueSkew)))
						continue
					}
					c.AppendInt(c.Ints[src])
				}
			}
		}
		for _, c := range t.Cols {
			if t.Index(c.Name) != nil {
				_, _ = t.BuildIndex(c.Name)
			}
		}
	}
}
