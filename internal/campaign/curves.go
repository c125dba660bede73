package campaign

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
)

// The curve aggregate: BENCH_curves.json charts the paper's measurable
// claims as curves along three axes of a campaign's cross product.
//
//	axis          points                     metric          shape
//	variant       det, rand, compiled        avgBitsPerEdge  det/rand ratio (Theorem 3.1, Lemma C.3)
//	rounds        t ascending                maxPortBits     strictly decreasing (the κ/t tradeoff)
//	multiplicity  m ascending, m = 0 last    totalBits       never rising, first above last (broadcast ⇄ unicast)
//
// One rule builds every curve: the ok comm-bearing records (estimate and
// comm measures under honest labels) are grouped by (scheme, variant,
// family, n, rounds, multiplicity) with the curve's own axis left out, so
// a curve holds every other axis fixed — a det/rand ratio never blends
// broadcast with unicast cells, and a rounds curve never starts at a
// merged class message. A point folds the seeds, executors and measures
// at its axis value. Curves are sorted by their fixed axes, points by
// their axis order, and means are folded in record order, so the file is
// deterministic for a deterministic results stream.

// BenchCurvesFile is the curve aggregate's file name.
const BenchCurvesFile = "BENCH_curves.json"

// The curve axes, as a spec's curve bounds name them.
const (
	AxisVariant      = "variant"
	AxisRounds       = "rounds"
	AxisMultiplicity = "multiplicity"
)

// CurveBound is a spec-declared bound on one axis's curves, which
// `plscampaign assert` checks:
//
//   - variant: the mean det/rand ratio over the paired curves exceeds
//     Min (a ratio of 1 is no separation);
//   - rounds: at least Min schemes and Min families have a strictly
//     decreasing curve;
//   - multiplicity: no curve rises, and at least Min schemes and Min
//     families have a curve whose first point is above its last.
type CurveBound struct {
	Axis string  `json:"axis"`
	Min  float64 `json:"min"`
}

// Point is one axis value of a curve: the records there, folded.
type Point struct {
	At               string  `json:"at"` // the variant name, t, or m (0 = unconstrained)
	Cells            int     `json:"cells"`
	AvgBitsPerEdge   float64 `json:"avgBitsPerEdge"` // mean over the cells, in record order
	MaxPortBits      int     `json:"maxPortBits"`    // the largest single message of any round
	TotalBits        int64   `json:"totalBits"`
	DistinctMessages int64   `json:"distinctMessages"`
}

// Curve is one group of points that share every axis but their own,
// whose field is left zero. Multiplicity 0 on the other axes is the
// unconstrained round, as in results.jsonl.
type Curve struct {
	Scheme       string  `json:"scheme"`
	Variant      string  `json:"variant,omitempty"`
	Family       string  `json:"family"`
	N            int     `json:"n"`
	Rounds       int     `json:"rounds,omitempty"`
	Multiplicity int     `json:"multiplicity,omitempty"`
	Points       []Point `json:"points"`
	// DetRandRatio is det ÷ rand mean bits per edge (variant axis); zero
	// unless the curve has both points.
	DetRandRatio float64 `json:"detRandRatio,omitempty"`
	// Witness marks a curve that shows its axis's shape: a det/rand pair,
	// maxPortBits strictly decreasing over at least two points, or a first
	// totalBits above the last.
	Witness bool `json:"witness"`
	// Violation marks a curve that breaks its axis's shape: totalBits
	// rising somewhere along the multiplicity axis.
	Violation bool `json:"violation,omitempty"`
}

// CurveAxis is one axis's curves and what they show.
type CurveAxis struct {
	Axis       string `json:"axis"`
	Metric     string `json:"metric"`
	Witnesses  int    `json:"witnesses"`
	Violations int    `json:"violations"`
	// Schemes and Families count the distinct ones among the witnesses.
	Schemes  int `json:"schemes"`
	Families int `json:"families"`
	// DetRandRatio is the mean of the curves' ratios (variant axis).
	DetRandRatio float64 `json:"detRandRatio,omitempty"`
	Curves       []Curve `json:"curves"`
}

// BenchCurves is the BENCH_curves.json layout.
type BenchCurves struct {
	Spec    string      `json:"spec"`
	Records int         `json:"records"` // comm-bearing ok records; every axis folds all of them
	Axes    []CurveAxis `json:"axes"`
}

// curveKey is a record's place in the cross product, less seed, executor
// and measure.
type curveKey struct {
	scheme, variant, family string
	n, rounds, mult         int
}

// pointKey is a record's place on one axis: the curve's fixed axes and
// the point's position along its own.
type pointKey struct {
	curveKey
	pos int
}

// comparePointKeys orders points by curve, then along the axis.
func comparePointKeys(a, b pointKey) int {
	return cmp.Or(cmp.Compare(a.scheme, b.scheme), cmp.Compare(a.variant, b.variant),
		cmp.Compare(a.family, b.family), cmp.Compare(a.n, b.n),
		cmp.Compare(a.rounds, b.rounds), cmp.Compare(a.mult, b.mult), cmp.Compare(a.pos, b.pos))
}

// curveAxes is the axis table. at reads a key's coordinate on the axis
// and clears it, leaving what the curve holds fixed; shape sets the
// curve's ratio, witness and violation once its points are in order.
var curveAxes = []struct {
	name, metric string
	at           func(k *curveKey) (pos int, label string)
	shape        func(c *Curve)
}{
	{AxisVariant, "avgBitsPerEdge",
		func(k *curveKey) (int, string) {
			v := k.variant
			k.variant = ""
			return slices.Index([]string{VariantDet, VariantRand, VariantCompiled}, v), v
		},
		func(c *Curve) {
			det := slices.IndexFunc(c.Points, func(p Point) bool { return p.At == VariantDet })
			rand := slices.IndexFunc(c.Points, func(p Point) bool { return p.At == VariantRand })
			if det >= 0 && rand >= 0 && c.Points[rand].AvgBitsPerEdge > 0 {
				c.DetRandRatio = c.Points[det].AvgBitsPerEdge / c.Points[rand].AvgBitsPerEdge
			}
			c.Witness = c.DetRandRatio > 0
		}},
	{AxisRounds, "maxPortBits",
		func(k *curveKey) (int, string) {
			t := k.rounds
			k.rounds = 0
			return t, strconv.Itoa(t)
		},
		func(c *Curve) {
			c.Witness = len(c.Points) >= 2
			for i := 1; i < len(c.Points); i++ {
				if c.Points[i].MaxPortBits >= c.Points[i-1].MaxPortBits {
					c.Witness = false
				}
			}
		}},
	{AxisMultiplicity, "totalBits",
		func(k *curveKey) (int, string) {
			m := k.mult
			k.mult = 0
			if m == 0 {
				return math.MaxInt, "0" // unicast, the far end of the axis
			}
			return m, strconv.Itoa(m)
		},
		func(c *Curve) {
			ps := c.Points
			c.Witness = len(ps) >= 2 && ps[0].TotalBits > ps[len(ps)-1].TotalBits
			for i := 1; i < len(ps); i++ {
				if ps[i].TotalBits > ps[i-1].TotalBits {
					c.Violation = true
				}
			}
		}},
}

// commBearing reports whether the record carries honest-label wire
// measurements worth folding.
func commBearing(rec *Record) bool {
	return rec.Status == StatusOK && rec.TotalMessages > 0 &&
		(rec.Measure == MeasureEstimate || rec.Measure == MeasureComm)
}

// AggregateCurves folds records into the curve aggregate, every axis of
// the table in its order.
func AggregateCurves(specName string, recs []Record) BenchCurves {
	b := BenchCurves{Spec: specName}
	for i := range recs {
		if commBearing(&recs[i]) {
			b.Records++
		}
	}
	for _, ax := range curveAxes {
		a := CurveAxis{Axis: ax.name, Metric: ax.metric}
		points := map[pointKey]*Point{}
		for i := range recs {
			rec := &recs[i]
			if !commBearing(rec) {
				continue
			}
			k := pointKey{curveKey: curveKey{rec.Scheme, rec.Variant, rec.Family, rec.N, rec.RoundCount(), rec.Multiplicity}}
			var label string
			k.pos, label = ax.at(&k.curveKey)
			p := points[k]
			if p == nil {
				p = &Point{At: label}
				points[k] = p
			}
			p.AvgBitsPerEdge = (p.AvgBitsPerEdge*float64(p.Cells) + rec.AvgBitsPerEdge) / float64(p.Cells+1)
			p.Cells++
			p.MaxPortBits = max(p.MaxPortBits, rec.MaxPortBits)
			p.TotalBits += rec.TotalBits
			p.DistinctMessages += rec.TotalDistinct
		}

		// In sorted order each curve's points are adjacent and in axis order.
		var last curveKey
		for _, k := range slices.SortedFunc(maps.Keys(points), comparePointKeys) {
			if len(a.Curves) == 0 || k.curveKey != last {
				a.Curves = append(a.Curves, Curve{Scheme: k.scheme, Variant: k.variant, Family: k.family,
					N: k.n, Rounds: k.rounds, Multiplicity: k.mult})
				last = k.curveKey
			}
			c := &a.Curves[len(a.Curves)-1]
			c.Points = append(c.Points, *points[k])
		}
		schemes, families := map[string]bool{}, map[string]bool{}
		ratios := 0.0
		for i := range a.Curves {
			c := &a.Curves[i]
			ax.shape(c)
			if c.Witness {
				a.Witnesses++
				schemes[c.Scheme], families[c.Family] = true, true
				ratios += c.DetRandRatio
			}
			if c.Violation {
				a.Violations++
			}
		}
		a.Schemes, a.Families = len(schemes), len(families)
		if ratios > 0 {
			a.DetRandRatio = ratios / float64(a.Witnesses)
		}
		b.Axes = append(b.Axes, a)
	}
	return b
}

// Check returns one error for every bound the curves miss, naming the
// bound and what its axis shows instead.
func (b BenchCurves) Check(bounds []CurveBound) []error {
	var errs []error
	for _, a := range b.Axes {
		for _, bd := range bounds {
			if bd.Axis != a.Axis {
				continue
			}
			var miss string
			switch {
			case a.Axis == AxisVariant:
				if a.DetRandRatio <= bd.Min {
					miss = fmt.Sprintf("mean det/rand ratio %.3f over %d paired curves does not exceed %g",
						a.DetRandRatio, a.Witnesses, bd.Min)
				}
			case a.Violations > 0:
				miss = fmt.Sprintf("%d of %d curves rise along the axis", a.Violations, len(a.Curves))
			case float64(a.Schemes) < bd.Min || float64(a.Families) < bd.Min:
				miss = fmt.Sprintf("%d schemes × %d families witness the shape, want at least %g × %g",
					a.Schemes, a.Families, bd.Min, bd.Min)
			}
			if miss != "" {
				errs = append(errs, fmt.Errorf("curve bound %s min %g missed: %s", bd.Axis, bd.Min, miss))
			}
		}
	}
	return errs
}

// validateCurveBounds checks a spec's bounds: a known axis, at most once,
// with min >= 0.
func validateCurveBounds(bounds []CurveBound) error {
	seen := map[string]bool{}
	for _, bd := range bounds {
		known := false
		for _, ax := range curveAxes {
			known = known || ax.name == bd.Axis
		}
		switch {
		case !known:
			return fmt.Errorf("campaign: unknown curve axis %q (%s, %s, %s)", bd.Axis, AxisVariant, AxisRounds, AxisMultiplicity)
		case seen[bd.Axis]:
			return fmt.Errorf("campaign: curve axis %q bounded twice", bd.Axis)
		case !(bd.Min >= 0):
			return fmt.Errorf("campaign: curve bound on %q needs min >= 0, got %g", bd.Axis, bd.Min)
		}
		seen[bd.Axis] = true
	}
	return nil
}
