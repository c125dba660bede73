package experiments

import (
	"fmt"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/uniform"
)

// E19WireAccounting measures the paper's headline axis end to end: the
// exact bits one edge carries per verification round, metered by the
// engine's wire accounting, across every registered graph family. The
// Unif predicate makes λ (the payload length) a free knob, so the table
// shows per-edge cost Θ(λ) for the deterministic scheme versus O(log λ)
// for the randomized fingerprints — the separation growing without bound
// as λ grows — and checks the measured randomized cost against the
// analytic core.CompiledCertBits envelope bit for bit.
func E19WireAccounting(seed uint64, quick bool) (Table, error) {
	const n = 24
	lambdas := []int{64, 512, 4096}
	families := graph.FamilyNames()
	if quick {
		lambdas = []int{64, 512}
		families = []string{"cycle", "grid", "hypercube"}
	}
	t := Table{
		ID:    "E19",
		Title: "Wire accounting: per-edge det vs rand communication",
		Claim: "Per-edge verification cost is Θ(λ) deterministic vs O(log λ) randomized (Lemma C.3 / Theorem 3.1), on every graph family.",
		Headers: []string{"family", "n", "m", "λ", "det bits/edge",
			"rand bits/edge", "det/rand", "analytic O(log λ)"},
	}
	for _, fam := range families {
		f, ok := graph.LookupFamily(fam)
		if !ok {
			return t, fmt.Errorf("unknown family %q", fam)
		}
		for _, lambda := range lambdas {
			g, err := f.Build(graph.FamilyParams{N: n, Seed: seed + uint64(lambda)})
			if err != nil {
				return t, fmt.Errorf("family %s n=%d: %w", fam, n, err)
			}
			cfg := buildUniformOnGraph(g, lambda, seed+uint64(lambda))

			det := engine.FromPLS(uniform.NewPLS())
			detSum, err := engine.Estimate(det, cfg, engine.WithTrials(1), engine.WithSeed(seed))
			if err != nil {
				return t, fmt.Errorf("%s λ=%d det: %w", fam, lambda, err)
			}
			rand := engine.FromRPLS(uniform.NewRPLS())
			randSum, err := engine.Estimate(rand, cfg, engine.WithTrials(3), engine.WithSeed(seed))
			if err != nil {
				return t, fmt.Errorf("%s λ=%d rand: %w", fam, lambda, err)
			}

			analytic := core.CompiledCertBits(lambda)
			if randSum.MaxPortBits != analytic {
				return t, fmt.Errorf("%s λ=%d: measured rand port bits %d != analytic %d",
					fam, lambda, randSum.MaxPortBits, analytic)
			}
			if int(detSum.AvgBitsPerEdge) != lambda {
				return t, fmt.Errorf("%s λ=%d: det per-edge cost %v != λ",
					fam, lambda, detSum.AvgBitsPerEdge)
			}
			t.Rows = append(t.Rows, []string{
				fam, itoa(cfg.G.N()), itoa(cfg.G.M()), itoa(lambda),
				fmt.Sprintf("%.0f", detSum.AvgBitsPerEdge),
				fmt.Sprintf("%.1f", randSum.AvgBitsPerEdge),
				fmt.Sprintf("%.1f", detSum.AvgBitsPerEdge/randSum.AvgBitsPerEdge),
				itoa(analytic)})
		}
	}
	t.Notes = append(t.Notes,
		"det bits/edge equals λ exactly (the payload travels whole); rand bits/edge is the γ-prefixed (x, A(x)) fingerprint, identical on every topology.",
		"Sequential and Batched meter identical totals for the same seed, equal to an independent goroutine-per-node reference — the golden-bits test in internal/engine enforces it.")
	return t, nil
}

// buildUniformOnGraph equips an arbitrary graph with identical λ-bit
// payloads drawn from the seed, yielding a legal Unif configuration.
func buildUniformOnGraph(g *graph.Graph, lambda int, seed uint64) *graph.Config {
	cfg := graph.NewConfig(g)
	rng := prng.New(seed)
	cfg.AssignRandomIDs(rng)
	payload := make([]byte, (lambda+7)/8)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	for v := range cfg.States {
		d := make([]byte, len(payload))
		copy(d, payload)
		cfg.States[v].Data = d
	}
	return cfg
}
