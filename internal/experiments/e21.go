package experiments

import (
	"fmt"
	"reflect"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/schemes/uniform"
)

// E21Congestion reproduces the broadcast ⇄ unicast separation of
// Patt-Shamir & Perry: capping the number of distinct messages a node may
// send per round at m interpolates between broadcast (m = 1) and unicast
// (m = deg, here the unconstrained m = 0 cell). Schemes that degrade by
// payload merging pay Σ class² fingerprint bits per node, so their
// verified wire cost falls strictly from the broadcast end to the unicast
// end; the generic replication fallback is flat. The table sweeps the
// multiplicity axis for merging and non-merging schemes over several
// graph families, asserting the curve is monotone non-increasing, that
// verification stays complete under every cap, that the distinct-message
// meter obeys its conservation law, and that every point is byte-identical
// across the round kernel (Sequential) and Batched at parallelism 1 and 4.
func E21Congestion(seed uint64, quick bool) (Table, error) {
	const n, lambda = 24, 512
	mults := []int{1, 2, 4, 0} // congestion-axis order: broadcast first, unicast (0) last
	families := graph.FamilyNames()
	if quick {
		families = []string{"grid", "hypercube"}
	}
	schemes := []struct {
		name    string
		trials  int
		merging bool // one-sided and single-round: the engine's cap merges it
		build   func() engine.Scheme
	}{
		{"unif rand", 3, true, func() engine.Scheme { return engine.FromRPLS(uniform.NewRPLS()) }},
		{"unif compiled", 3, true, func() engine.Scheme { return engine.FromRPLS(core.Compile(uniform.NewPLS())) }},
		{"unif det", 1, false, func() engine.Scheme { return engine.FromPLS(uniform.NewPLS()) }},
	}
	execs := []struct {
		name string
		mk   func() engine.Executor
	}{
		{"sequential", func() engine.Executor { return engine.NewSequential() }},
		{"batched", func() engine.Executor { return engine.NewBatched() }},
	}

	t := Table{
		ID:    "E21",
		Title: "Congestion-bounded verification: broadcast ⇄ unicast",
		Claim: "Capping per-node message multiplicity at m trades congestion for proof traffic: merging schemes' verified bits fall monotonically from the broadcast extreme (m = 1) to unicast (m = deg), the replication fallback stays flat, and every point is byte-identical across the Sequential and Batched executors.",
		Headers: []string{"family", "scheme", "n", "m",
			"total bits", "distinct msgs", "bits/edge", "accepted"},
	}

	for _, fam := range families {
		f, ok := graph.LookupFamily(fam)
		if !ok {
			return t, fmt.Errorf("unknown family %q", fam)
		}
		g, err := f.Build(graph.FamilyParams{N: n, Seed: seed})
		if err != nil {
			return t, fmt.Errorf("family %s n=%d: %w", fam, n, err)
		}
		cfg := buildUniformOnGraph(g, lambda, seed)

		for _, sc := range schemes {
			var first, prev engine.Summary
			for i, m := range mults {
				var base engine.Summary
				for j, ex := range execs {
					for _, par := range []int{1, 4} {
						sum, err := engine.Estimate(sc.build(), cfg,
							engine.WithTrials(sc.trials), engine.WithSeed(seed),
							engine.WithMultiplicity(m),
							engine.WithExecutor(ex.mk()), engine.WithParallelism(par))
						if err != nil {
							return t, fmt.Errorf("%s %s m=%d %s/p%d: %w", fam, sc.name, m, ex.name, par, err)
						}
						if j == 0 && par == 1 {
							base = sum
						} else if !reflect.DeepEqual(sum, base) {
							return t, fmt.Errorf("%s %s m=%d: %s/p%d summary diverges from sequential/p1 (%+v vs %+v)",
								fam, sc.name, m, ex.name, par, sum, base)
						}
					}
				}
				if base.Accepted != base.Trials {
					return t, fmt.Errorf("%s %s m=%d: capped verification rejected an honest instance (%d/%d)",
						fam, sc.name, m, base.Accepted, base.Trials)
				}
				if base.TotalDistinct > base.TotalMessages {
					return t, fmt.Errorf("%s %s m=%d: distinct messages %d exceed messages %d (conservation law)",
						fam, sc.name, m, base.TotalDistinct, base.TotalMessages)
				}
				if i == 0 {
					first = base
				} else {
					if base.TotalBits > prev.TotalBits {
						return t, fmt.Errorf("%s %s: verified bits rose along the congestion axis (m=%d: %d > m=%d: %d)",
							fam, sc.name, m, base.TotalBits, mults[i-1], prev.TotalBits)
					}
					if base.TotalDistinct < prev.TotalDistinct {
						return t, fmt.Errorf("%s %s: distinct messages fell along the congestion axis (m=%d: %d < m=%d: %d)",
							fam, sc.name, m, base.TotalDistinct, mults[i-1], prev.TotalDistinct)
					}
				}
				prev = base

				t.Rows = append(t.Rows, []string{
					fam, sc.name, itoa(cfg.G.N()), multLabel(m),
					fmt.Sprintf("%d", base.TotalBits),
					fmt.Sprintf("%d", base.TotalDistinct),
					fmt.Sprintf("%.1f", base.AvgBitsPerEdge),
					fmt.Sprintf("%d/%d", base.Accepted, base.Trials)})
			}
			if sc.merging && prev.TotalBits >= first.TotalBits {
				return t, fmt.Errorf("%s %s: no broadcast/unicast separation (m=1: %d vs unicast: %d)",
					fam, sc.name, first.TotalBits, prev.TotalBits)
			}
			if !sc.merging && prev.TotalBits != first.TotalBits {
				return t, fmt.Errorf("%s %s: replication fallback not flat (m=1: %d vs unicast: %d)",
					fam, sc.name, first.TotalBits, prev.TotalBits)
			}
		}
	}
	t.Notes = append(t.Notes,
		"m=∞ rows are the unconstrained classic round (the unicast extreme); rows are in congestion-axis order, broadcast first.",
		"unif rand and unif compiled are one-sided single-round schemes, so the engine merges their capped rounds: a port class carries the γ-framed concatenation of its members' fingerprints (core.CapMerge), so bits fall like Σ class² as m grows. Both executors run these rounds on the schemes' own prepared nodes inside the engine's cap node, which splits every class message and checks each member. unif det broadcasts its label on every port, which meets every cap, and stays flat.",
		"Every row was computed 4 times (Sequential and Batched × parallelism 1 and 4) and the summaries compared for byte identity; the campaign form of this table is the multiplicity axis of BENCH_curves.json, whose smoke bound plscampaign assert checks in CI.")
	return t, nil
}

// multLabel renders a multiplicity cap for a table row: the unconstrained
// cell prints as ∞, matching the congestion axis's unicast extreme.
func multLabel(m int) string {
	if m == 0 {
		return "∞"
	}
	return itoa(m)
}
