package campaign

import (
	"testing"
)

func TestSpecMultiplicityValidation(t *testing.T) {
	base := Spec{
		Name:     "m",
		Schemes:  []SchemeAxis{{Name: "spanningtree"}},
		Families: []FamilyAxis{{Name: "path"}},
		Sizes:    []int{8},
		Seeds:    []uint64{1},
		Measures: []string{MeasureComm},
	}
	for _, bad := range [][]int{{-1}, {2, -3}} {
		s := base
		s.Multiplicity = bad
		if err := s.Validate(); err == nil {
			t.Errorf("multiplicity %v accepted, want rejection", bad)
		}
	}
	s := base
	s.Multiplicity = []int{1, 2, 0} // 0 = unconstrained is legal
	if err := s.Validate(); err != nil {
		t.Errorf("multiplicity %v rejected: %v", s.Multiplicity, err)
	}
}

// TestCellIDMultiplicitySuffix pins resume compatibility: an unconstrained
// cell's ID is byte-identical to the pre-congestion engine, and capped
// cells get a distinct /m= marker.
func TestCellIDMultiplicitySuffix(t *testing.T) {
	c := Cell{Scheme: "s", Variant: "rand", Family: FamilyAxis{Name: "path"},
		N: 8, Seed: 1, Executor: "sequential", Measure: MeasureComm, Trials: 4, Rounds: 1}
	if got, want := c.ID(), "s/rand/path/n=8/seed=1/sequential/comm/t=4"; got != want {
		t.Errorf("m=0 cell ID %q, want the pre-congestion form %q", got, want)
	}
	c.Multiplicity = 2
	if got, want := c.ID(), "s/rand/path/n=8/seed=1/sequential/comm/t=4/m=2"; got != want {
		t.Errorf("m=2 cell ID %q, want %q", got, want)
	}
}

// TestExpandMultiplicityAxis checks the multiplicity axis nests innermost
// and defaults to the single unconstrained cell.
func TestExpandMultiplicityAxis(t *testing.T) {
	spec := Spec{
		Name:         "m",
		Schemes:      []SchemeAxis{{Name: "uniform", Variants: []string{VariantRand}}},
		Families:     []FamilyAxis{{Name: "path"}},
		Sizes:        []int{8},
		Seeds:        []uint64{1},
		Measures:     []string{MeasureComm},
		Multiplicity: []int{1, 2, 0},
	}
	plan, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 3 {
		t.Fatalf("%d cells, want 3", len(plan.Cells))
	}
	for i, want := range []int{1, 2, 0} {
		if plan.Cells[i].Multiplicity != want {
			t.Errorf("cell %d multiplicity = %d, want %d (innermost nesting)", i, plan.Cells[i].Multiplicity, want)
		}
	}

	spec.Multiplicity = nil
	plan, err = Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 1 || plan.Cells[0].Multiplicity != 0 {
		t.Fatalf("default multiplicity plan = %+v, want one unconstrained cell", plan.Cells)
	}
}

// TestRunCellMultiplicity executes the uniform randomized scheme at
// m ∈ {1, 2, 0} and checks the records chart the congestion axis:
// verified bits non-increasing toward unicast with a strict
// broadcast/unicast separation, distinct messages non-decreasing, and the
// conservation law TotalDistinct <= TotalMessages everywhere.
func TestRunCellMultiplicity(t *testing.T) {
	mk := func(m int) Cell {
		return Cell{Scheme: "uniform", Variant: VariantRand,
			Family: FamilyAxis{Name: CatalogFamily}, N: 12, Seed: 3,
			Executor: "sequential", Measure: MeasureComm, Rounds: 1, Trials: 8,
			Multiplicity: m}
	}
	var prev Record
	for i, m := range []int{1, 2, 0} {
		r := RunCell(mk(m))
		if r.Status != StatusOK {
			t.Fatalf("m=%d cell failed: %s (%s)", m, r.Status, r.Reason)
		}
		if r.Multiplicity != m {
			t.Errorf("m=%d record Multiplicity = %d", m, r.Multiplicity)
		}
		if r.TotalDistinct <= 0 || r.TotalDistinct > r.TotalMessages {
			t.Errorf("m=%d: distinct %d outside (0, messages=%d]", m, r.TotalDistinct, r.TotalMessages)
		}
		if i > 0 {
			if r.TotalBits > prev.TotalBits {
				t.Errorf("m=%d: verified bits %d rose above previous point's %d", m, r.TotalBits, prev.TotalBits)
			}
			if r.TotalDistinct < prev.TotalDistinct {
				t.Errorf("m=%d: distinct %d fell below previous point's %d", m, r.TotalDistinct, prev.TotalDistinct)
			}
		}
		prev = r
	}
	broadcast := RunCell(mk(1))
	if broadcast.TotalBits <= prev.TotalBits {
		t.Errorf("no separation: broadcast %d bits vs unicast %d", broadcast.TotalBits, prev.TotalBits)
	}
}
