package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rpls/internal/engine"
	"rpls/internal/graph"
)

// Variant names a scheme construction within a registry entry.
const (
	VariantDet      = "det"      // the deterministic scheme
	VariantRand     = "rand"     // the hand-built randomized scheme
	VariantCompiled = "compiled" // core.Compile of the deterministic scheme (Theorem 3.1)
)

// Measure names what a cell measures.
const (
	MeasureEstimate  = "estimate"  // completeness: prover labels, Monte-Carlo acceptance
	MeasureSoundness = "soundness" // worst-case acceptance under the standard adversaries
	MeasureComm      = "comm"      // wire accounting: exact bits per edge under honest labels
)

// CatalogFamily is the pseudo-family that sources instances from the
// experiments catalog (each predicate's own builder and corruptor) instead
// of the graph family registry.
const CatalogFamily = "catalog"

// SchemeAxis selects one registry entry and which of its variants to run.
// An empty Variants list selects every non-compiled variant the entry has.
type SchemeAxis struct {
	Name     string   `json:"name"`
	Variants []string `json:"variants,omitempty"`
}

// FamilyAxis selects one instance source: a registered graph family with
// optional shape knobs, or the "catalog" pseudo-family.
type FamilyAxis struct {
	Name string  `json:"name"`
	P    float64 `json:"p,omitempty"` // gnp edge probability
	D    int     `json:"d,omitempty"` // dregular degree
}

// String renders the axis for cell IDs: the name plus any set knobs.
func (f FamilyAxis) String() string {
	var knobs []string
	if f.P != 0 {
		knobs = append(knobs, fmt.Sprintf("p=%g", f.P))
	}
	if f.D != 0 {
		knobs = append(knobs, fmt.Sprintf("d=%d", f.D))
	}
	if len(knobs) == 0 {
		return f.Name
	}
	return f.Name + "(" + strings.Join(knobs, ",") + ")"
}

// Spec is the declarative description of a campaign: every axis is a list,
// and the plan is their cross product. The zero values of Trials,
// Assignments, and Executors select defaults (64, 4, ["sequential"]).
type Spec struct {
	Name     string       `json:"name"`
	Schemes  []SchemeAxis `json:"schemes"`
	Families []FamilyAxis `json:"families"`
	Sizes    []int        `json:"sizes"`
	Seeds    []uint64     `json:"seeds"`
	Measures []string     `json:"measures"`
	// Rounds is the t-PLS verification-round axis: each cell runs its
	// scheme variant sharded over t rounds of ⌈κ/t⌉ bits per port
	// (engine.Shard, under core.Shard's layout). Empty selects [1], the
	// classic single round; every entry must be >= 1.
	Rounds []int `json:"rounds,omitempty"`
	// Multiplicity is the congestion axis: each cell caps the number of
	// distinct messages a node may mint per round at m (engine
	// WithMultiplicity). 0 is the classic unconstrained round (unicast),
	// 1 is broadcast. Empty selects [0]; every entry must be >= 0.
	Multiplicity []int    `json:"multiplicity,omitempty"`
	Executors    []string `json:"executors,omitempty"`
	Trials       int      `json:"trials,omitempty"`
	Assignments  int      `json:"assignments,omitempty"`
	MaxSE        float64  `json:"maxse,omitempty"`
	// Curves bounds the curve aggregate (BENCH_curves.json), at most once
	// per axis; `plscampaign assert` checks them. Without it a spec is
	// report-only. Bounds do not enter cell IDs.
	Curves []CurveBound `json:"curves,omitempty"`
}

// ParseSpec decodes and validates a JSON spec. Unknown fields and any data
// after the spec object are errors, so a typoed axis name or a second
// spec cannot silently vanish from a campaign.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("campaign: parse spec: data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// withDefaults returns a copy with the optional axes filled in.
func (s Spec) withDefaults() Spec {
	if len(s.Executors) == 0 {
		s.Executors = []string{"sequential"}
	}
	if len(s.Rounds) == 0 {
		s.Rounds = []int{1}
	}
	if len(s.Multiplicity) == 0 {
		s.Multiplicity = []int{0}
	}
	if s.Trials <= 0 {
		s.Trials = 64
	}
	if s.Assignments <= 0 {
		s.Assignments = 4
	}
	return s
}

// Validate checks every axis against the registries: scheme names and
// variants against engine.Registry, family names against graph.Families,
// measures and executors against the known sets, and curve bounds against
// the curve axes.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Schemes) == 0 || len(s.Families) == 0 || len(s.Sizes) == 0 ||
		len(s.Seeds) == 0 || len(s.Measures) == 0 {
		return fmt.Errorf("campaign: spec %q needs schemes, families, sizes, seeds, and measures", s.Name)
	}
	for _, ax := range s.Schemes {
		e, ok := engine.Lookup(ax.Name)
		if !ok {
			return fmt.Errorf("campaign: unknown scheme %q (registered: %s)", ax.Name, registeredSchemes())
		}
		for _, v := range ax.Variants {
			switch v {
			case VariantDet, VariantCompiled:
				if e.Det == nil {
					return fmt.Errorf("campaign: scheme %q has no deterministic variant for %q", ax.Name, v)
				}
			case VariantRand:
				if e.Rand == nil {
					return fmt.Errorf("campaign: scheme %q has no randomized variant", ax.Name)
				}
			default:
				return fmt.Errorf("campaign: unknown variant %q (det, rand, compiled)", v)
			}
		}
	}
	for _, f := range s.Families {
		if f.Name == CatalogFamily {
			// Knobs on the catalog pseudo-family would mint distinct cell IDs
			// for byte-identical work.
			if f.P != 0 || f.D != 0 {
				return fmt.Errorf("campaign: the %q instance source takes no p/d knobs", CatalogFamily)
			}
			continue
		}
		if _, ok := graph.LookupFamily(f.Name); !ok {
			return fmt.Errorf("campaign: unknown family %q (registered: %s, or %q)",
				f.Name, strings.Join(graph.FamilyNames(), ", "), CatalogFamily)
		}
		// Shape knobs are honest only where a builder reads them; anywhere
		// else they would fork cell IDs without changing the work. Out-of-
		// range values are rejected here, not silently defaulted by the
		// builder, so a cell ID never claims a shape that was not built.
		if f.P != 0 {
			if f.Name != "gnp" {
				return fmt.Errorf("campaign: family %q takes no p knob (only gnp does)", f.Name)
			}
			if f.P < 0 || f.P > 1 {
				return fmt.Errorf("campaign: gnp needs 0 < p <= 1, got %g", f.P)
			}
		}
		if f.D != 0 {
			if f.Name != "dregular" {
				return fmt.Errorf("campaign: family %q takes no d knob (only dregular does)", f.Name)
			}
			if f.D < 3 {
				return fmt.Errorf("campaign: dregular needs d >= 3, got %d", f.D)
			}
		}
	}
	for _, n := range s.Sizes {
		if n < 2 {
			return fmt.Errorf("campaign: size %d too small (need >= 2)", n)
		}
	}
	for _, m := range s.Measures {
		if m != MeasureEstimate && m != MeasureSoundness && m != MeasureComm {
			return fmt.Errorf("campaign: unknown measure %q (%s, %s, %s)",
				m, MeasureEstimate, MeasureSoundness, MeasureComm)
		}
	}
	for _, r := range s.Rounds {
		// t = 0 (and negative t) is rejected up front — a zero-round scheme
		// verifies nothing; t > κ is legal (late rounds carry empty shards).
		if r < 1 {
			return fmt.Errorf("campaign: rounds value %d invalid (need t >= 1)", r)
		}
	}
	for _, m := range s.Multiplicity {
		// m = 0 is the classic unconstrained round; negative caps are
		// rejected here with the same message the engine's validated
		// options layer would produce at run time.
		if m < 0 {
			return fmt.Errorf("campaign: multiplicity value %d invalid (need m >= 0; 0 = unconstrained)", m)
		}
	}
	for _, e := range s.Executors {
		if _, err := engine.NewExecutor(e); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	// Like a negative cap, a negative half-width would fail every cell in
	// the engine's WithMaxSE check at run time.
	if s.MaxSE < 0 {
		return fmt.Errorf("campaign: maxse %g invalid (need >= 0; 0 = no early stop)", s.MaxSE)
	}
	return validateCurveBounds(s.Curves)
}

func registeredSchemes() string {
	var names []string
	for _, e := range engine.Entries() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}

// variantsFor resolves an axis's variant list against the registry entry:
// an explicit list verbatim, otherwise every non-compiled variant the entry
// has, in det-then-rand order.
func variantsFor(ax SchemeAxis, e engine.Entry) []string {
	if len(ax.Variants) > 0 {
		return ax.Variants
	}
	var out []string
	if e.Det != nil {
		out = append(out, VariantDet)
	}
	if e.Rand != nil {
		out = append(out, VariantRand)
	}
	return out
}

// Cell is one fully resolved scenario: everything a worker needs to run it,
// and a pure function of these fields alone — no shared state, no clock.
type Cell struct {
	Index        int
	Scheme       string
	Variant      string
	Family       FamilyAxis
	N            int
	Seed         uint64
	Executor     string
	Measure      string
	Rounds       int // verification rounds t; 1 is the classic single round
	Multiplicity int // message-multiplicity cap m; 0 is unconstrained
	Trials       int
	Assignments  int
	MaxSE        float64
}

// ID is the cell's stable identity: the resolved axes plus the measurement
// budget, independent of position. A grown spec re-run in the same
// directory still recognizes its completed cells, while changing the
// budget (trials, soundness assignments, maxse) changes the IDs — those
// cells measure something different and must re-execute rather than be
// silently skipped as complete.
func (c Cell) ID() string {
	id := fmt.Sprintf("%s/%s/%s/n=%d/seed=%d/%s/%s/t=%d",
		c.Scheme, c.Variant, c.Family, c.N, c.Seed, c.Executor, c.Measure, c.Trials)
	// The classic single round writes no marker, so every pre-rounds
	// campaign directory resumes with its completed cells still recognized.
	if c.Rounds > 1 {
		id += fmt.Sprintf("/r=%d", c.Rounds)
	}
	// Likewise the unconstrained cap: pre-congestion directories resume
	// cleanly, and only genuinely capped cells carry the marker.
	if c.Multiplicity > 0 {
		id += fmt.Sprintf("/m=%d", c.Multiplicity)
	}
	if c.Measure == MeasureSoundness {
		id += fmt.Sprintf("/a=%d", c.Assignments)
	}
	if c.MaxSE != 0 {
		id += fmt.Sprintf("/se=%g", c.MaxSE)
	}
	return id
}

// Plan is a spec expanded into its cells, in fixed axis order.
type Plan struct {
	Spec  Spec
	Cells []Cell
}

// Breakdown is the per-axis factorization of a plan's cell count: the
// product of its fields equals len(Plan.Cells). It exists so a user can
// see where a distributed campaign's size comes from (and which axis to
// trim) before leasing cells to a worker fleet.
type Breakdown struct {
	SchemeVariants int // selected variants summed across scheme axes
	Families       int
	Sizes          int
	Seeds          int
	Executors      int
	Measures       int
	Rounds         int
	Multiplicity   int
	Cells          int // the product
}

func (b Breakdown) String() string {
	return fmt.Sprintf("%d scheme-variants × %d families × %d sizes × %d seeds × %d executors × %d measures × %d rounds × %d multiplicities = %d cells",
		b.SchemeVariants, b.Families, b.Sizes, b.Seeds, b.Executors, b.Measures, b.Rounds, b.Multiplicity, b.Cells)
}

// Breakdown factors the expanded cell count per axis. The plan's spec has
// its defaults filled in by Expand, so every axis length is the one that
// actually multiplied in.
func (p *Plan) Breakdown() Breakdown {
	b := Breakdown{
		Families:     len(p.Spec.Families),
		Sizes:        len(p.Spec.Sizes),
		Seeds:        len(p.Spec.Seeds),
		Executors:    len(p.Spec.Executors),
		Measures:     len(p.Spec.Measures),
		Rounds:       len(p.Spec.Rounds),
		Multiplicity: len(p.Spec.Multiplicity),
	}
	for _, ax := range p.Spec.Schemes {
		e, _ := engine.Lookup(ax.Name)
		b.SchemeVariants += len(variantsFor(ax, e))
	}
	b.Cells = b.SchemeVariants * b.Families * b.Sizes * b.Seeds * b.Executors * b.Measures * b.Rounds * b.Multiplicity
	return b
}

// Expand validates the spec and produces its plan. The nesting order —
// scheme, variant, family, size, seed, executor, measure, rounds,
// multiplicity — is part of the output contract: results.jsonl is written
// in this order. Each newly grown axis nests innermost (rounds, then
// multiplicity), so a spec that adds one keeps every existing cell's
// relative order.
func Expand(spec Spec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	p := &Plan{Spec: spec}
	seen := map[string]bool{}
	for _, ax := range spec.Schemes {
		e, _ := engine.Lookup(ax.Name)
		for _, variant := range variantsFor(ax, e) {
			for _, fam := range spec.Families {
				for _, n := range spec.Sizes {
					for _, seed := range spec.Seeds {
						for _, exec := range spec.Executors {
							for _, measure := range spec.Measures {
								for _, rounds := range spec.Rounds {
									for _, mult := range spec.Multiplicity {
										c := Cell{
											Index:        len(p.Cells),
											Scheme:       ax.Name,
											Variant:      variant,
											Family:       fam,
											N:            n,
											Seed:         seed,
											Executor:     exec,
											Measure:      measure,
											Rounds:       rounds,
											Multiplicity: mult,
											Trials:       spec.Trials,
											Assignments:  spec.Assignments,
											MaxSE:        spec.MaxSE,
										}
										// Duplicate axis values (seeds [1, 1], a family
										// listed twice) would write duplicate records
										// under one ID; reject them at expansion.
										if seen[c.ID()] {
											return nil, fmt.Errorf("campaign: spec %q expands to duplicate cell %s (duplicate axis values)", spec.Name, c.ID())
										}
										seen[c.ID()] = true
										p.Cells = append(p.Cells, c)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return p, nil
}
