package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rpls/internal/engine"
)

func testSpec() Spec {
	return Spec{
		Name: "unit",
		Schemes: []SchemeAxis{
			{Name: "spanningtree"},
			{Name: "coloring", Variants: []string{VariantRand}},
			// Incompatible on the cyclic families (gnp, grid): those cells
			// must surface as documented holes, not errors.
			{Name: "acyclicity"},
		},
		Families: []FamilyAxis{{Name: "gnp", P: 0.2}, {Name: "grid"}, {Name: CatalogFamily}},
		Sizes:    []int{8, 12},
		Seeds:    []uint64{3},
		Measures: []string{MeasureEstimate, MeasureSoundness},
		Trials:   16,
	}
}

func TestParseSpecRejectsUnknownNames(t *testing.T) {
	cases := []struct{ name, doc, wantErr string }{
		{"unknown scheme", `{"name":"x","schemes":[{"name":"nope"}],"families":[{"name":"path"}],"sizes":[8],"seeds":[1],"measures":["estimate"]}`, "unknown scheme"},
		{"unknown family", `{"name":"x","schemes":[{"name":"leader"}],"families":[{"name":"nope"}],"sizes":[8],"seeds":[1],"measures":["estimate"]}`, "unknown family"},
		{"unknown measure", `{"name":"x","schemes":[{"name":"leader"}],"families":[{"name":"path"}],"sizes":[8],"seeds":[1],"measures":["nope"]}`, "unknown measure"},
		{"unknown variant", `{"name":"x","schemes":[{"name":"leader","variants":["nope"]}],"families":[{"name":"path"}],"sizes":[8],"seeds":[1],"measures":["estimate"]}`, "unknown variant"},
		{"unknown field", `{"name":"x","schemez":[]}`, "unknown field"},
		{"missing axes", `{"name":"x"}`, "needs schemes"},
		{"tiny size", `{"name":"x","schemes":[{"name":"leader"}],"families":[{"name":"path"}],"sizes":[1],"seeds":[1],"measures":["estimate"]}`, "too small"},
		{"negative maxse", okSpec(`,"maxse":-0.2`), "maxse -0.2 invalid"},
		{"second spec after the object", okSpec(``) + ` {"name":"b","sizes":[999]}`, "data after the spec object"},
		{"garbage after the object", okSpec(``) + ` trailing garbage`, "data after the spec object"},
		{"unknown curve axis", okSpec(`,"curves":[{"axis":"size","min":1}]`), "unknown curve axis"},
		{"duplicate curve axis", okSpec(`,"curves":[{"axis":"rounds","min":1},{"axis":"rounds","min":2}]`), "bounded twice"},
		{"negative curve min", okSpec(`,"curves":[{"axis":"variant","min":-1}]`), "min >= 0"},
	}
	// The retired executors and the retired "seq" alias are unknown names:
	// cell IDs encode the executor, so a spec naming one must fail rather
	// than re-map, or one execution would run under two cell IDs.
	for _, exec := range []string{"nope", "pool", "goroutines", "seq"} {
		cases = append(cases, struct{ name, doc, wantErr string }{"unknown executor " + exec,
			`{"name":"x","schemes":[{"name":"leader"}],"families":[{"name":"path"}],"sizes":[8],"seeds":[1],"measures":["estimate"],"executors":["` + exec + `"]}`,
			"unknown executor"})
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
			continue
		}
		if tc.wantErr == "unknown executor" {
			var oe *engine.OptionError
			if !errors.As(err, &oe) || oe.Option != "WithExecutor" || !errors.Is(err, engine.ErrOption) {
				t.Errorf("%s: %v is not an engine WithExecutor option error", tc.name, err)
			}
		}
	}
}

// okSpec is a valid one-cell spec document with extra fields spliced in.
func okSpec(extra string) string {
	return `{"name":"x","schemes":[{"name":"leader"}],"families":[{"name":"path"}],"sizes":[8],"seeds":[1],"measures":["estimate"]` + extra + `}`
}

// FuzzParseSpec feeds hostile spec JSON to the parser. Oracle: no panic;
// an accepted spec's stored form — spec.json as Prepare writes it, which
// resume and `plscampaign assert` read back — re-parses, curve bounds
// included, and expands to the same cell IDs in the same order.
func FuzzParseSpec(f *testing.F) {
	for _, name := range []string{"comm", "e1_e6", "smoke", "tradeoff"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(okSpec(`,"maxse":-0.2`)))
	f.Add([]byte(okSpec(``) + ` trailing garbage`))
	f.Add([]byte(okSpec(`,"curves":[{"axis":"size","min":1}]`)))
	f.Add([]byte(okSpec(`,"curves":[{"axis":"rounds","min":1},{"axis":"rounds","min":2}]`)))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil || cellBound(spec) > 4096 {
			return
		}
		plan, err := Expand(spec)
		if err != nil {
			return // duplicate axis values
		}
		if err := writeSpec(filepath.Join(dir, SpecFile), plan.Spec); err != nil {
			t.Fatal(err)
		}
		stored, err := ReadSpec(dir)
		if err != nil {
			t.Fatalf("stored spec does not re-parse: %v", err)
		}
		again, err := Expand(stored)
		if err != nil {
			t.Fatalf("stored spec does not expand: %v", err)
		}
		if len(again.Cells) != len(plan.Cells) {
			t.Fatalf("stored spec expands to %d cells, want %d", len(again.Cells), len(plan.Cells))
		}
		for i, c := range plan.Cells {
			if again.Cells[i].ID() != c.ID() {
				t.Fatalf("cell %d: stored spec gives %s, want %s", i, again.Cells[i].ID(), c.ID())
			}
		}
		if !slices.Equal(stored.Curves, spec.Curves) {
			t.Fatalf("curve bounds %+v stored as %+v", spec.Curves, stored.Curves)
		}
	})
}

// cellBound is an upper bound on a spec's expanded cell count (every
// scheme counted at its largest variant list), saturating past 4096 so a
// fuzzed spec cannot make the harness expand millions of cells.
func cellBound(s Spec) int {
	n := 0
	for _, ax := range s.Schemes {
		n += max(len(ax.Variants), 2)
	}
	for _, l := range []int{len(s.Families), len(s.Sizes), len(s.Seeds), max(len(s.Executors), 1),
		len(s.Measures), max(len(s.Rounds), 1), max(len(s.Multiplicity), 1)} {
		if n > 4096 {
			break
		}
		n *= l
	}
	return n
}

func TestExpandOrderAndIDs(t *testing.T) {
	plan, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// spanningtree and acyclicity: det+rand (defaulted); coloring: rand only.
	// (2 + 1 + 2 variants) × 3 families × 2 sizes × 1 seed × 1 executor × 2 measures.
	want := 5 * 3 * 2 * 1 * 1 * 2
	if len(plan.Cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(plan.Cells), want)
	}
	if got := plan.Cells[0].ID(); got != "spanningtree/det/gnp(p=0.2)/n=8/seed=3/sequential/estimate/t=16" {
		t.Errorf("first cell ID = %q", got)
	}
	ids := make(map[string]bool, len(plan.Cells))
	for i, c := range plan.Cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if ids[c.ID()] {
			t.Fatalf("duplicate cell ID %q", c.ID())
		}
		ids[c.ID()] = true
		if c.Trials != 16 || c.Assignments != 4 {
			t.Fatalf("cell %d: defaults not applied: %+v", i, c)
		}
	}
	// Expansion is deterministic: same spec, same plan.
	again, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Cells {
		if plan.Cells[i] != again.Cells[i] {
			t.Fatalf("expansion unstable at cell %d", i)
		}
	}
}

func TestCompiledVariantRequiresDet(t *testing.T) {
	s := testSpec()
	s.Schemes = []SchemeAxis{{Name: "spanningtree", Variants: []string{VariantCompiled}}}
	plan, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Cells {
		if c.Variant != VariantCompiled {
			t.Fatalf("unexpected variant %q", c.Variant)
		}
	}
}

func TestExpandRejectsDuplicateCells(t *testing.T) {
	s := testSpec()
	s.Seeds = []uint64{1, 1}
	if _, err := Expand(s); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Errorf("duplicate seeds: got %v, want duplicate-cell error", err)
	}
	s = testSpec()
	s.Families = append(s.Families, FamilyAxis{Name: "grid"})
	if _, err := Expand(s); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Errorf("duplicate family: got %v, want duplicate-cell error", err)
	}
}

func TestValidateRejectsMeaninglessKnobs(t *testing.T) {
	s := testSpec()
	s.Families = []FamilyAxis{{Name: CatalogFamily, P: 0.5}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "no p/d knobs") {
		t.Errorf("catalog with p: got %v", err)
	}
	s.Families = []FamilyAxis{{Name: "grid", P: 0.5}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "no p knob") {
		t.Errorf("grid with p: got %v", err)
	}
	s.Families = []FamilyAxis{{Name: "gnp", D: 4}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "no d knob") {
		t.Errorf("gnp with d: got %v", err)
	}
	// Out-of-range knobs are rejected up front, never silently defaulted
	// into a cell ID that lies about the built shape.
	s.Families = []FamilyAxis{{Name: "gnp", P: -0.5}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "0 < p <= 1") {
		t.Errorf("gnp with negative p: got %v", err)
	}
	s.Families = []FamilyAxis{{Name: "dregular", D: 2}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "d >= 3") {
		t.Errorf("dregular with d=2: got %v", err)
	}
	s.Families = []FamilyAxis{{Name: "gnp", P: 0.5}, {Name: "dregular", D: 4}}
	if err := s.Validate(); err != nil {
		t.Errorf("legitimate knobs rejected: %v", err)
	}
}

func TestFamilySizeMismatchIsIncompatible(t *testing.T) {
	// torus needs n >= 9; a smaller size in the cross product is a
	// documented hole, not a campaign failure.
	if _, _, err := BuildLegal("leader", FamilyAxis{Name: "torus"}, 4, 1); !IsIncompatible(err) {
		t.Errorf("torus at n=4: want ErrIncompatible, got %v", err)
	}
}

func TestBuildLegalIncompatibleScenarios(t *testing.T) {
	// acyclicity on a torus: no forest, so no legal instance.
	if _, _, err := BuildLegal("acyclicity", FamilyAxis{Name: "torus"}, 9, 1); err == nil {
		t.Error("acyclicity on torus should be incompatible")
	} else if !IsIncompatible(err) {
		t.Errorf("acyclicity on torus: want ErrIncompatible, got %v", err)
	}
	// flow has no generic legalizer.
	if _, _, err := BuildLegal("flow", FamilyAxis{Name: "gnp"}, 8, 1); !IsIncompatible(err) {
		t.Errorf("flow on gnp: want ErrIncompatible, got %v", err)
	}
	// but spanningtree on a torus is fine.
	cfg, _, err := BuildLegal("spanningtree", FamilyAxis{Name: "torus"}, 9, 1)
	if err != nil {
		t.Fatalf("spanningtree on torus: %v", err)
	}
	if cfg.G.N() != 9 {
		t.Errorf("torus n=9 built %d nodes", cfg.G.N())
	}
}
