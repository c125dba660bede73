package experiments

import (
	"fmt"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/schemes/uniform"
)

// E20RoundTradeoff reproduces the paper's space–time tradeoff end to end:
// allowing t verification rounds shrinks the per-round proof traffic to
// ⌈κ/t⌉ bits per port (the t-PLS model of Patt-Shamir & Perry, tightened
// by Filtser & Fischer). The Unif predicate pins κ exactly — λ for the
// deterministic label broadcast, the fingerprint envelope for the
// randomized scheme — so the table can check the metered bits-per-round
// against ⌈κ/t⌉ bit for bit, on every registered graph family, for both
// variants, while the total bits on the wire stay constant: sharding
// trades rounds for bandwidth, it never creates or destroys proof bits.
func E20RoundTradeoff(seed uint64, quick bool) (Table, error) {
	const n, lambda = 24, 512
	roundCounts := []int{1, 2, 4, 8}
	families := graph.FamilyNames()
	if quick {
		roundCounts = []int{1, 2, 4}
		families = []string{"cycle", "grid", "hypercube"}
	}
	t := Table{
		ID:    "E20",
		Title: "Multi-round verification: the κ/t tradeoff",
		Claim: "With t rounds of verification, per-round proof traffic drops to ⌈κ/t⌉ bits per port — for deterministic labels (κ = λ) and randomized fingerprints (κ = O(log λ)) alike — while total proof bits are conserved.",
		Headers: []string{"family", "n", "m", "t",
			"det bits/round", "det ⌈κ/t⌉", "rand bits/round", "rand ⌈κ/t⌉", "total det bits"},
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
		detKappa, randKappa := lambda, core.CompiledCertBits(lambda)

		prevDet, prevRand := 0, 0
		var baseTotal int64
		for i, rounds := range roundCounts {
			det, err := engine.Shard(engine.FromPLS(uniform.NewPLS()), rounds)
			if err != nil {
				return t, err
			}
			rand, err := engine.Shard(engine.FromRPLS(uniform.NewRPLS()), rounds)
			if err != nil {
				return t, err
			}
			detSum, err := engine.Estimate(det, cfg, engine.WithTrials(1), engine.WithSeed(seed))
			if err != nil {
				return t, fmt.Errorf("%s t=%d det: %w", fam, rounds, err)
			}
			randSum, err := engine.Estimate(rand, cfg, engine.WithTrials(3), engine.WithSeed(seed))
			if err != nil {
				return t, fmt.Errorf("%s t=%d rand: %w", fam, rounds, err)
			}

			wantDet, wantRand := core.ShardWidth(detKappa, rounds), core.ShardWidth(randKappa, rounds)
			if detSum.MaxPortBits != wantDet {
				return t, fmt.Errorf("%s t=%d: det bits/round %d != ⌈κ/t⌉ = %d",
					fam, rounds, detSum.MaxPortBits, wantDet)
			}
			if randSum.MaxPortBits != wantRand {
				return t, fmt.Errorf("%s t=%d: rand bits/round %d != ⌈κ/t⌉ = %d",
					fam, rounds, randSum.MaxPortBits, wantRand)
			}
			if detSum.Accepted != detSum.Trials || randSum.Accepted != randSum.Trials {
				return t, fmt.Errorf("%s t=%d: sharded verification rejected an honest instance", fam, rounds)
			}
			if i == 0 {
				baseTotal = detSum.TotalBits
			} else {
				if detSum.MaxPortBits >= prevDet || randSum.MaxPortBits >= prevRand {
					return t, fmt.Errorf("%s t=%d: bits/round not strictly decreasing (det %d vs %d, rand %d vs %d)",
						fam, rounds, detSum.MaxPortBits, prevDet, randSum.MaxPortBits, prevRand)
				}
				if detSum.TotalBits != baseTotal {
					return t, fmt.Errorf("%s t=%d: total det bits %d != base %d (sharding must conserve bits)",
						fam, rounds, detSum.TotalBits, baseTotal)
				}
			}
			prevDet, prevRand = detSum.MaxPortBits, randSum.MaxPortBits

			t.Rows = append(t.Rows, []string{
				fam, itoa(cfg.G.N()), itoa(cfg.G.M()), itoa(rounds),
				itoa(detSum.MaxPortBits), itoa(wantDet),
				itoa(randSum.MaxPortBits), itoa(wantRand),
				fmt.Sprintf("%d", detSum.TotalBits)})
		}
	}
	t.Notes = append(t.Notes,
		"bits/round is the largest single message of any round (engine Stats.MaxPortBits): exactly the ⌈κ/t⌉ shard of the fixed layout in core/shard.go.",
		"Total det bits are identical for every t on a family — the tradeoff redistributes the proof across rounds without inflating it.",
		"The campaign form of this table is the rounds axis of BENCH_curves.json, whose smoke bound (strictly decreasing for >= 2 schemes × 2 families) plscampaign assert checks in CI; this experiment stays to check ⌈κ/t⌉ and conserved totals exactly.")
	return t, nil
}
