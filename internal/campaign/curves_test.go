package campaign

import (
	"strings"
	"testing"
)

// rec builds a minimal comm-bearing record at a rounds point.
func rec(scheme, variant, family string, n, rounds, portBits int) Record {
	return Record{
		Scheme: scheme, Variant: variant, Family: family, N: n,
		Rounds: rounds, Status: StatusOK, Measure: MeasureComm,
		MaxPortBits: portBits, TotalBits: int64(portBits) * 100,
		TotalMessages: 100, AvgBitsPerEdge: float64(portBits),
	}
}

// crec builds a minimal comm-bearing record at a multiplicity point.
func crec(scheme, variant, family string, n, mult int, bits, distinct int64) Record {
	return Record{
		Scheme: scheme, Variant: variant, Family: family, N: n,
		Multiplicity: mult, Status: StatusOK, Measure: MeasureComm,
		TotalBits: bits, TotalDistinct: distinct,
		TotalMessages: 100, AvgBitsPerEdge: float64(bits) / 100,
	}
}

// vrec builds a minimal comm-bearing record at a (variant, multiplicity)
// point with the given bits per edge.
func vrec(variant string, mult int, perEdge float64) Record {
	return Record{
		Scheme: "s", Variant: variant, Family: "path", N: 16,
		Multiplicity: mult, Status: StatusOK, Measure: MeasureComm,
		TotalBits: int64(perEdge * 100), TotalMessages: 100, AvgBitsPerEdge: perEdge,
	}
}

// axis returns the named axis of an aggregate.
func axis(t *testing.T, b BenchCurves, name string) CurveAxis {
	t.Helper()
	for _, a := range b.Axes {
		if a.Axis == name {
			return a
		}
	}
	t.Fatalf("aggregate has no %s axis", name)
	return CurveAxis{}
}

func TestAggregateTradeoffCurves(t *testing.T) {
	recs := []Record{
		// A strictly decreasing curve: 40 > 20 > 10. The t=1 record carries
		// Rounds 0 (the pre-rounds on-disk form) and must count as t=1.
		rec("a", "det", "path", 16, 0, 40),
		rec("a", "det", "path", 16, 2, 20),
		rec("a", "det", "path", 16, 4, 10),
		// A flat curve: sharding did nothing (κ = 1); not decreasing.
		rec("b", "rand", "path", 16, 1, 1),
		rec("b", "rand", "path", 16, 2, 1),
		// A single-point curve can never witness the tradeoff.
		rec("c", "rand", "grid", 16, 1, 30),
		// A non-monotone curve: 8 then 9.
		rec("d", "det", "grid", 16, 1, 16),
		rec("d", "det", "grid", 16, 2, 8),
		rec("d", "det", "grid", 16, 4, 9),
		// Errors and soundness records must not be folded.
		{Scheme: "a", Variant: "det", Family: "path", N: 16, Status: StatusError, Measure: MeasureComm, MaxPortBits: 999, TotalMessages: 1},
		{Scheme: "a", Variant: "det", Family: "path", N: 16, Status: StatusOK, Measure: MeasureSoundness, MaxPortBits: 999, TotalMessages: 1},
	}
	b := AggregateCurves("spec", recs)
	if b.Records != 9 {
		t.Fatalf("folded %d records, want 9", b.Records)
	}
	rounds := axis(t, b, AxisRounds)
	if rounds.Metric != "maxPortBits" || len(rounds.Curves) != 4 {
		t.Fatalf("rounds axis: metric %s, %d curves; want maxPortBits, 4", rounds.Metric, len(rounds.Curves))
	}
	byScheme := map[string]Curve{}
	for _, c := range rounds.Curves {
		byScheme[c.Scheme] = c
	}
	a := byScheme["a"]
	if !a.Witness {
		t.Errorf("curve a not marked strictly decreasing: %+v", a)
	}
	if len(a.Points) != 3 || a.Points[0].At != "1" || a.Points[0].MaxPortBits != 40 || a.Points[0].Cells != 1 {
		t.Errorf("curve a points wrong (Rounds 0 must normalize to 1): %+v", a.Points)
	}
	for _, name := range []string{"b", "c", "d"} {
		if byScheme[name].Witness {
			t.Errorf("curve %s wrongly marked strictly decreasing", name)
		}
	}
	if rounds.Witnesses != 1 || rounds.Schemes != 1 || rounds.Families != 1 || rounds.Violations != 0 {
		t.Errorf("rounds axis counts = %d witnesses, %d schemes, %d families, %d violations; want 1, 1, 1, 0",
			rounds.Witnesses, rounds.Schemes, rounds.Families, rounds.Violations)
	}
}

func TestAggregateCongestCurves(t *testing.T) {
	recs := []Record{
		// A merging scheme: bits fall strictly from broadcast (m=1) through
		// m=2 to the unconstrained unicast extreme (m=0, sorted last).
		crec("a", "rand", "path", 16, 1, 400, 100),
		crec("a", "rand", "path", 16, 2, 220, 200),
		crec("a", "rand", "path", 16, 0, 100, 400),
		// A flat replication-fallback curve: never rising but not separated.
		crec("b", "rand", "path", 16, 1, 50, 100),
		crec("b", "rand", "path", 16, 0, 50, 400),
		// A single-point curve can witness nothing.
		crec("c", "rand", "grid", 16, 1, 30, 10),
		// A violating curve: bits rise from m=1 to m=0.
		crec("d", "rand", "grid", 16, 1, 10, 10),
		crec("d", "rand", "grid", 16, 0, 20, 40),
		// A multi-round record holds its own rounds value: it starts a
		// curve of its own instead of blending into a's t=1 curve.
		{Scheme: "a", Variant: "rand", Family: "path", N: 16, Rounds: 3, Status: StatusOK, Measure: MeasureComm, TotalBits: 999, TotalMessages: 1},
		// Non-comm records are not folded.
		{Scheme: "a", Variant: "rand", Family: "path", N: 16, Status: StatusOK, Measure: MeasureSoundness, TotalBits: 999, TotalMessages: 1},
	}
	b := AggregateCurves("spec", recs)
	if b.Records != 9 {
		t.Fatalf("folded %d records, want 9", b.Records)
	}
	mult := axis(t, b, AxisMultiplicity)
	if mult.Metric != "totalBits" || len(mult.Curves) != 5 {
		t.Fatalf("multiplicity axis: metric %s, %d curves; want totalBits, 5", mult.Metric, len(mult.Curves))
	}
	byKey := map[string]Curve{}
	for _, c := range mult.Curves {
		if c.Multiplicity != 0 {
			t.Errorf("curve %s holds its own axis at m=%d", c.Scheme, c.Multiplicity)
		}
		if c.Scheme == "a" && c.Rounds == 3 {
			byKey["a3"] = c
			continue
		}
		byKey[c.Scheme] = c
	}
	a := byKey["a"]
	if a.Violation || !a.Witness {
		t.Errorf("curve a should be never rising and separated: %+v", a)
	}
	// Axis order: m=1 first, capped ascending, m=0 (unicast) last.
	if len(a.Points) != 3 || a.Points[0].At != "1" || a.Points[1].At != "2" || a.Points[2].At != "0" {
		t.Errorf("curve a axis order wrong: %+v", a.Points)
	}
	if a.Points[0].TotalBits != 400 || a.Points[2].DistinctMessages != 400 {
		t.Errorf("curve a point sums wrong: %+v", a.Points)
	}
	if a3 := byKey["a3"]; len(a3.Points) != 1 || a3.Points[0].TotalBits != 999 || a3.Witness {
		t.Errorf("t=3 record: want its own single-point curve, got %+v", a3)
	}
	if bb := byKey["b"]; bb.Violation || bb.Witness {
		t.Errorf("flat curve b should be never rising but not separated: %+v", bb)
	}
	if cc := byKey["c"]; cc.Violation || cc.Witness {
		t.Errorf("single-point curve c can witness nothing: %+v", cc)
	}
	if dd := byKey["d"]; !dd.Violation || dd.Witness {
		t.Errorf("rising curve d wrongly classified: %+v", dd)
	}
	if mult.Violations != 1 {
		t.Errorf("Violations = %d, want 1 (curve d)", mult.Violations)
	}
	if mult.Witnesses != 1 || mult.Schemes != 1 || mult.Families != 1 {
		t.Errorf("separated counts = %d curves, %d schemes, %d families; want 1, 1, 1",
			mult.Witnesses, mult.Schemes, mult.Families)
	}
}

// TestAggregateVariantCurvesHoldOtherAxesFixed pins the grouping rule on
// the variant axis: det/rand cells at broadcast (m=1) and at unicast (m=0)
// are two curves with their own ratios, never one blend of both.
func TestAggregateVariantCurvesHoldOtherAxesFixed(t *testing.T) {
	recs := []Record{
		vrec(VariantCompiled, 0, 20),
		vrec(VariantRand, 0, 10),
		vrec(VariantDet, 0, 30), // two seeds: det's m=0 point averages to 40
		vrec(VariantDet, 0, 50),
		vrec(VariantDet, 1, 40),
		vrec(VariantRand, 1, 80),
	}
	variant := axis(t, AggregateCurves("spec", recs), AxisVariant)
	if variant.Metric != "avgBitsPerEdge" || len(variant.Curves) != 2 {
		t.Fatalf("variant axis: metric %s, %d curves; want avgBitsPerEdge, 2 (one per m)", variant.Metric, len(variant.Curves))
	}
	unicast, broadcast := variant.Curves[0], variant.Curves[1]
	if unicast.Multiplicity != 0 || broadcast.Multiplicity != 1 || unicast.Variant != "" {
		t.Fatalf("curves keyed wrong: %+v", variant.Curves)
	}
	var order []string
	for _, p := range unicast.Points {
		order = append(order, p.At)
	}
	if got := strings.Join(order, " "); got != "det rand compiled" {
		t.Errorf("variant points in order %q, want det rand compiled", got)
	}
	if p := unicast.Points[0]; p.Cells != 2 || p.AvgBitsPerEdge != 40 || p.TotalBits != 8000 {
		t.Errorf("det m=0 point %+v, want 2 cells, 40 bits per edge, 8000 total bits", p)
	}
	if unicast.DetRandRatio != 4 || broadcast.DetRandRatio != 0.5 {
		t.Errorf("det/rand ratios %v (m=0) and %v (m=1), want exactly 4 and 0.5",
			unicast.DetRandRatio, broadcast.DetRandRatio)
	}
	if variant.Witnesses != 2 || variant.DetRandRatio != 2.25 {
		t.Errorf("%d paired curves with mean ratio %v, want 2 and exactly 2.25", variant.Witnesses, variant.DetRandRatio)
	}
}

// TestCurveBoundsFailPastTheData checks every bound at the value its axis
// shows (holds) and just past it (missed), and that a rising multiplicity
// curve misses the bound at any min.
func TestCurveBoundsFailPastTheData(t *testing.T) {
	recs := []Record{
		// variant: one det/rand pair at ratio 3.
		vrec(VariantDet, 0, 30),
		vrec(VariantRand, 0, 10),
		// rounds: strictly decreasing for two schemes on two families.
		rec("a", "det", "path", 16, 1, 40), rec("a", "det", "path", 16, 2, 20),
		rec("b", "det", "grid", 16, 1, 40), rec("b", "det", "grid", 16, 2, 20),
		// multiplicity: one separated curve.
		crec("c", "rand", "path", 16, 1, 400, 100), crec("c", "rand", "path", 16, 0, 100, 400),
	}
	b := AggregateCurves("spec", recs)
	for _, tc := range []struct {
		bound CurveBound
		holds bool
	}{
		{CurveBound{AxisVariant, 2.9}, true},
		{CurveBound{AxisVariant, 3}, false}, // the ratio must exceed min
		{CurveBound{AxisRounds, 2}, true},
		{CurveBound{AxisRounds, 3}, false},
		{CurveBound{AxisMultiplicity, 1}, true},
		{CurveBound{AxisMultiplicity, 2}, false},
	} {
		errs := b.Check([]CurveBound{tc.bound})
		if tc.holds && len(errs) != 0 {
			t.Errorf("%+v: %v, want the bound to hold", tc.bound, errs)
		}
		if !tc.holds && (len(errs) != 1 || !strings.Contains(errs[0].Error(), "curve bound "+tc.bound.Axis)) {
			t.Errorf("%+v: %v, want one error naming the bound", tc.bound, errs)
		}
	}
	all := []CurveBound{{AxisVariant, 4}, {AxisRounds, 3}, {AxisMultiplicity, 2}}
	if errs := b.Check(all); len(errs) != 3 {
		t.Errorf("three missed bounds gave %d errors: %v", len(errs), errs)
	}

	rising := AggregateCurves("spec", append(recs,
		crec("d", "rand", "grid", 16, 1, 10, 10), crec("d", "rand", "grid", 16, 0, 20, 40)))
	if errs := rising.Check([]CurveBound{{AxisMultiplicity, 0}}); len(errs) != 1 || !strings.Contains(errs[0].Error(), "rise") {
		t.Errorf("rising curve at min 0: %v, want one error naming the rise", errs)
	}
}
