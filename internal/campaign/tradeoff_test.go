package campaign

import (
	"reflect"
	"testing"

	"rpls/internal/core"
)

func TestSpecRoundsValidation(t *testing.T) {
	base := Spec{
		Name:     "r",
		Schemes:  []SchemeAxis{{Name: "spanningtree"}},
		Families: []FamilyAxis{{Name: "path"}},
		Sizes:    []int{8},
		Seeds:    []uint64{1},
		Measures: []string{MeasureComm},
	}
	for _, bad := range [][]int{{0}, {-2}, {2, 0}} {
		s := base
		s.Rounds = bad
		if err := s.Validate(); err == nil {
			t.Errorf("rounds %v accepted, want rejection", bad)
		}
	}
	s := base
	s.Rounds = []int{1, 2, 1000} // t > κ is legal: late rounds are empty
	if err := s.Validate(); err != nil {
		t.Errorf("rounds %v rejected: %v", s.Rounds, err)
	}
}

// TestCellIDRoundsSuffix pins resume compatibility: a single-round cell's
// ID is byte-identical to the pre-rounds engine, and multi-round cells get
// a distinct /r= marker.
func TestCellIDRoundsSuffix(t *testing.T) {
	c := Cell{Scheme: "s", Variant: "det", Family: FamilyAxis{Name: "path"},
		N: 8, Seed: 1, Executor: "sequential", Measure: MeasureComm, Trials: 4}
	c.Rounds = 1
	if got, want := c.ID(), "s/det/path/n=8/seed=1/sequential/comm/t=4"; got != want {
		t.Errorf("t=1 cell ID %q, want the pre-rounds form %q", got, want)
	}
	c.Rounds = 3
	if got, want := c.ID(), "s/det/path/n=8/seed=1/sequential/comm/t=4/r=3"; got != want {
		t.Errorf("t=3 cell ID %q, want %q", got, want)
	}
}

// TestExpandRoundsAxis checks the rounds axis nests innermost and defaults
// to the classic single round.
func TestExpandRoundsAxis(t *testing.T) {
	spec := Spec{
		Name:     "r",
		Schemes:  []SchemeAxis{{Name: "spanningtree", Variants: []string{VariantDet}}},
		Families: []FamilyAxis{{Name: "path"}},
		Sizes:    []int{8},
		Seeds:    []uint64{1},
		Measures: []string{MeasureComm},
		Rounds:   []int{1, 2, 4},
	}
	plan, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 3 {
		t.Fatalf("%d cells, want 3", len(plan.Cells))
	}
	for i, want := range []int{1, 2, 4} {
		if plan.Cells[i].Rounds != want {
			t.Errorf("cell %d rounds = %d, want %d (innermost nesting)", i, plan.Cells[i].Rounds, want)
		}
	}

	spec.Rounds = nil
	plan, err = Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 1 || plan.Cells[0].Rounds != 1 {
		t.Fatalf("default rounds plan = %+v, want one single-round cell", plan.Cells)
	}
}

// TestRunCellRounds executes one scheme at t ∈ {1, 2, 4} and checks the
// records show the tradeoff: same verdict, per-round port bits exactly
// ⌈κ/t⌉, total bits conserved.
func TestRunCellRounds(t *testing.T) {
	mk := func(rounds int) Cell {
		return Cell{Scheme: "spanningtree", Variant: VariantDet,
			Family: FamilyAxis{Name: CatalogFamily}, N: 12, Seed: 3,
			Executor: "sequential", Measure: MeasureComm, Rounds: rounds, Trials: 8}
	}
	base := RunCell(mk(1))
	if base.Status != StatusOK {
		t.Fatalf("t=1 cell failed: %s (%s)", base.Status, base.Reason)
	}
	if base.Rounds != 0 {
		t.Errorf("t=1 record carries Rounds=%d; the classic cell must omit it", base.Rounds)
	}
	prev := base.MaxPortBits
	for _, rounds := range []int{2, 4} {
		r := RunCell(mk(rounds))
		if r.Status != StatusOK {
			t.Fatalf("t=%d cell failed: %s (%s)", rounds, r.Status, r.Reason)
		}
		if r.Rounds != rounds {
			t.Errorf("t=%d record Rounds = %d", rounds, r.Rounds)
		}
		if want := core.ShardWidth(base.MaxPortBits, rounds); r.MaxPortBits != want {
			t.Errorf("t=%d: port bits %d, want ⌈%d/%d⌉ = %d",
				rounds, r.MaxPortBits, base.MaxPortBits, rounds, want)
		}
		if r.MaxPortBits >= prev {
			t.Errorf("t=%d: bits-per-round %d not below t/2's %d", rounds, r.MaxPortBits, prev)
		}
		if r.TotalBits != base.TotalBits {
			t.Errorf("t=%d: total bits %d != base %d", rounds, r.TotalBits, base.TotalBits)
		}
		prev = r.MaxPortBits
	}

	// maxse: a coin-free cell runs its one trial with no early stop to
	// make, so its record is the maxse-free one under the /se= ID, while a
	// randomized cell still stops once its interval is narrow enough.
	for _, rounds := range []int{1, 2, 4} {
		c := mk(rounds)
		c.MaxSE = 0.2
		want := RunCell(mk(rounds))
		want.Cell = c.ID()
		if got := RunCell(c); !reflect.DeepEqual(got, want) {
			t.Errorf("t=%d coin-free cell with maxse: got %+v, want %+v", rounds, got, want)
		}
	}
	c := mk(1)
	c.Variant, c.MaxSE = VariantRand, 0.2
	if r := RunCell(c); r.Status != StatusOK || r.Trials >= c.Trials {
		t.Errorf("rand cell with maxse: status %s (%s), %d trials, want ok and fewer than %d",
			r.Status, r.Reason, r.Trials, c.Trials)
	}
}
