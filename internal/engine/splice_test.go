package engine_test

import (
	"fmt"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// splitLengthRPLS is a one-sided test scheme whose strings differ in
// length within one node: every node sends 1⁸ on even port indices and
// 0⁹ on odd ones, and accepts iff every received string is one of the
// two. Under a multiplicity cap each port class must carry one of the two
// whole strings; replicating per round shard instead picks the longest
// shard of each round, which can come from different class members in
// different rounds, and the receiver reassembles a splice of the two.
type splitLengthRPLS struct{}

var (
	spliceOnes  = bitstring.FromBits([]byte{1, 1, 1, 1, 1, 1, 1, 1})
	spliceZeros = bitstring.FromBits([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
)

func (splitLengthRPLS) Name() string   { return "split-length" }
func (splitLengthRPLS) OneSided() bool { return true }

func (splitLengthRPLS) Label(c *graph.Config) ([]core.Label, error) {
	return make([]core.Label, c.G.N()), nil
}

func (splitLengthRPLS) Certs(view core.View, _ core.Label, _ *prng.Rand) []core.Cert {
	certs := make([]core.Cert, view.Deg)
	for i := range certs {
		certs[i] = spliceOnes
		if i%2 == 1 {
			certs[i] = spliceZeros
		}
	}
	return certs
}

func (splitLengthRPLS) Decide(_ core.View, _ core.Label, received []core.Cert) bool {
	for _, r := range received {
		if !r.Equal(spliceOnes) && !r.Equal(spliceZeros) {
			return false
		}
	}
	return true
}

// TestCapBeforeShardsNoSplice is the regression test for composing the
// multiplicity cap with t-round sharding: the cap applies once per trial
// to whole strings and the shard layout splits the result, so the honest
// configuration on K5 is accepted in every trial at every t and m, and
// the kernel, Batched, and the oracle report equal Summaries.
func TestCapBeforeShardsNoSplice(t *testing.T) {
	cfg := graph.NewConfig(graph.Complete(5))
	base := engine.FromRPLS(splitLengthRPLS{})
	labels, err := base.Label(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4
	for rounds := 1; rounds <= 4; rounds++ {
		s, err := engine.Shard(base, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("t=%d/m=%d", rounds, m), func(t *testing.T) {
				var ref engine.Summary
				for i, exec := range []engine.Executor{engine.NewSequential(), engine.NewBatched(), newOracle()} {
					sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels),
						engine.WithTrials(trials), engine.WithSeed(3),
						engine.WithMultiplicity(m), engine.WithExecutor(exec))
					if err != nil {
						t.Fatal(err)
					}
					if sum.Accepted != trials {
						t.Errorf("%s: honest labels accepted %d/%d", exec.Name(), sum.Accepted, sum.Trials)
					}
					if i == 0 {
						ref = sum
					} else if sum != ref {
						t.Errorf("%s summary %+v != sequential %+v", exec.Name(), sum, ref)
					}
				}
			})
		}
	}
}
