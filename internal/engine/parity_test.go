package engine_test

import (
	"fmt"
	"testing"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/acyclicity"
	"rpls/internal/schemes/schemetest"
	"rpls/internal/schemes/uniform"
)

// executors returns the goroutine-per-node oracle followed by one fresh
// instance of every engine executor: the round kernel and its batched wide
// mode. Scratch reuse is part of what the parity test exercises, so the
// same instances are used across all rounds of a subtest.
func executors() []engine.Executor {
	return []engine.Executor{
		newOracle(),
		engine.NewSequential(),
		engine.NewBatched(),
	}
}

func TestExecutorParity(t *testing.T) {
	rng := prng.New(2026)
	schemes := []struct {
		name string
		s    engine.Scheme
	}{
		{"acyclicity-det", engine.FromPLS(acyclicity.NewPLS())},
		{"acyclicity-rand", engine.FromRPLS(acyclicity.NewRPLS())},
	}
	execs := executors()
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		cfg := graph.NewConfig(graph.RandomTree(n, rng.Fork(uint64(trial))))
		for _, sc := range schemes {
			honest, err := sc.s.Label(cfg)
			if err != nil {
				t.Fatalf("trial %d: %s prover: %v", trial, sc.name, err)
			}
			seed := uint64(100 + trial)
			checkParity(t, execs, sc.s, cfg, honest, seed, fmt.Sprintf("trial %d %s honest", trial, sc.name))

			// Adversarial labels: rejection decisions must agree too.
			adv := schemetest.RandomLabels(rng, n, 24)
			checkParity(t, execs, sc.s, cfg, adv, seed+1, fmt.Sprintf("trial %d %s adversarial", trial, sc.name))

			// Illegal configuration under stale honest labels (transplant).
			if n >= 4 {
				bad := cfg.Clone()
				for attempt := 0; attempt < 50; attempt++ {
					u, v := rng.Intn(n), rng.Intn(n)
					if u != v && !bad.G.HasEdge(u, v) {
						if err := bad.G.AddEdge(u, v); err == nil {
							break
						}
					}
				}
				checkParity(t, execs, sc.s, bad, honest, seed+2, fmt.Sprintf("trial %d %s corrupted", trial, sc.name))
			}
		}
	}
}

// TestExecutorParityUniform covers a second randomized scheme whose
// certificates are payload fingerprints rather than compiled label hashes.
func TestExecutorParityUniform(t *testing.T) {
	rng := prng.New(7)
	s := engine.FromRPLS(uniform.NewRPLS())
	execs := executors()
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(30)
		cfg := experiments.BuildUniformConfig(n, 16, uint64(trial+1))
		labels, err := s.Label(cfg)
		if err != nil {
			t.Fatalf("trial %d: prover: %v", trial, err)
		}
		checkParity(t, execs, s, cfg, labels, uint64(trial), fmt.Sprintf("trial %d uniform honest", trial))

		bad := cfg.Clone()
		bad.States[rng.Intn(n)].Data[0] ^= 0xFF
		checkParity(t, execs, s, bad, labels, uint64(trial), fmt.Sprintf("trial %d uniform corrupted", trial))
	}
}

// checkParity runs the same round on every executor and requires identical
// votes and stats. The first executor (the oracle) is the reference.
func checkParity(t *testing.T, execs []engine.Executor, s engine.Scheme, c *graph.Config, labels []core.Label, seed uint64, desc string) {
	t.Helper()
	ref := engine.Verify(s, c, labels, engine.WithSeed(seed),
		engine.WithExecutor(execs[0]), engine.WithStats(true))
	for _, ex := range execs[1:] {
		got := engine.Verify(s, c, labels, engine.WithSeed(seed),
			engine.WithExecutor(ex), engine.WithStats(true))
		if got.Accepted != ref.Accepted {
			t.Fatalf("%s: %s accepted=%v, %s accepted=%v",
				desc, execs[0].Name(), ref.Accepted, ex.Name(), got.Accepted)
		}
		if got.Stats != ref.Stats {
			t.Fatalf("%s: %s stats=%+v, %s stats=%+v",
				desc, execs[0].Name(), ref.Stats, ex.Name(), got.Stats)
		}
		if len(got.Votes) != len(ref.Votes) {
			t.Fatalf("%s: vote lengths differ: %d vs %d", desc, len(ref.Votes), len(got.Votes))
		}
		for v := range ref.Votes {
			if got.Votes[v] != ref.Votes[v] {
				t.Fatalf("%s: node %d votes %v under %s but %v under %s",
					desc, v, ref.Votes[v], execs[0].Name(), got.Votes[v], ex.Name())
			}
		}
	}
}
