package rpls_test

import (
	"fmt"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/crossing"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/acyclicity"
	"rpls/internal/schemes/mst"
	"rpls/internal/schemes/spanningtree"
	"rpls/internal/schemes/uniform"
)

// ---------------------------------------------------------------------------
// One benchmark per experiment (E1–E17); each regenerates its DESIGN.md
// table in quick mode. `go test -bench 'E[0-9]+' -benchtime 1x` reproduces
// the full sweep cheaply.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		table, err := spec.Run(42, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1Compiler(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2EqualityProtocol(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3Universal(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4LowerBound(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5CrossingDet(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6CrossingRand(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7MST(b *testing.B)               { benchExperiment(b, "E7") }
func BenchmarkE8Biconnectivity(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9CycleAtLeast(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10IteratedCrossing(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11CycleAtMost(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Boosting(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13KFlow(b *testing.B)            { benchExperiment(b, "E13") }
func BenchmarkE14Symmetry(b *testing.B)         { benchExperiment(b, "E14") }
func BenchmarkE15SelfStab(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16SharedRandomness(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17STConnectivity(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18LabelShape(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19WireAccounting(b *testing.B)   { benchExperiment(b, "E19") }
func BenchmarkE20RoundTradeoff(b *testing.B)    { benchExperiment(b, "E20") }

// ---------------------------------------------------------------------------
// Operational micro-benchmarks: the costs a deployment would care about.
// ---------------------------------------------------------------------------

// BenchmarkFingerprint measures one Lemma A.1 certificate generation as a
// function of the fingerprinted string length.
func BenchmarkFingerprint(b *testing.B) {
	for _, lambda := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("lambda=%d", lambda), func(b *testing.B) {
			rng := prng.New(1)
			bits := make([]byte, lambda)
			for i := range bits {
				bits[i] = rng.Bit()
			}
			s := bitstring.FromBits(bits)
			p := field.PrimeForLength(lambda)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp := field.NewFingerprint(s, p, rng)
				if !fp.Matches(s) {
					b.Fatal("self-mismatch")
				}
			}
		})
	}
}

// BenchmarkPolyEval is the field tier under benchgate: one op evaluates a
// random n-bit string's polynomial over GF(PrimeForLength(n)) at a fixed
// batch of about 2²⁴/n points, `points` per EvalMany call, so every row
// runs well over benchgate's 1 ms floor at -benchtime 1x. ns/point is the
// cost of one evaluation.
func BenchmarkPolyEval(b *testing.B) {
	rng := prng.New(14)
	for _, n := range []int{64, 1293, 4096} {
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = rng.Bit()
		}
		p := field.PrimeForLength(n)
		poly := field.NewPoly(bitstring.FromBits(bits), p)
		evals := (1 << 24) / n &^ 63
		xs := make([]uint64, evals)
		for i := range xs {
			xs[i] = rng.Uint64n(p)
		}
		out := make([]uint64, 64)
		for _, points := range []int{1, 4, 64} {
			b.Run(fmt.Sprintf("n=%d/points=%d", n, points), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k := 0; k < evals; k += points {
						poly.EvalMany(xs[k:k+points], out)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*evals), "ns/point")
			})
		}
	}
}

// BenchmarkFingerprintCert is the certificate-codec tier under benchgate:
// one op encodes a fixed batch of 2¹⁸ fingerprint certificates of an n-bit
// string over GF(PrimeForLength(n)) with the prepared nodes' word encoder
// (core.FingerprintLayout), into one slab, then decodes and checks them
// all. n = 256 is uniform-batched's 37-bit layout, n = 1293 the compiled
// MST sub-label of mst-estimate (45 bits), and n = 2²⁰ an 85-bit layout
// across both words. ns/cert is one encode plus one decode.
func BenchmarkFingerprintCert(b *testing.B) {
	const certs = 1 << 18
	rng := prng.New(18)
	out := make([]core.Cert, certs)
	for _, n := range []int{256, 1293, 1 << 20} {
		p := field.PrimeForLength(n)
		lay := core.NewFingerprintLayout(n, p)
		size := (lay.Bits() + 7) / 8
		xs, ys := make([]uint64, certs), make([]uint64, certs)
		for k := range xs {
			xs[k], ys[k] = rng.Uint64n(p), rng.Uint64n(p)
		}
		slab := make([]byte, certs*size)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := range out {
					out[k] = lay.Encode(xs[k], ys[k], slab[k*size:(k+1)*size])
				}
				for k, cert := range out {
					if x, y, ok := lay.Decode(cert); !ok || x != xs[k] || y != ys[k] {
						b.Fatalf("certificate %d does not decode to its (x, y)", k)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*certs), "ns/cert")
		})
	}
}

// BenchmarkVerificationRound measures a full distributed verification round
// on the engine's default round kernel (Sequential) for the two MST schemes
// — the paper's headline predicate — across network sizes.
func BenchmarkVerificationRound(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		cfg, err := experiments.BuildMSTConfig(n, uint64(n))
		if err != nil {
			b.Fatal(err)
		}
		det := mst.NewPLS()
		detLabels, err := det.Label(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rand := mst.NewRPLS()
		randLabels, err := rand.Label(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("det/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !engine.Verify(engine.FromPLS(det), cfg, detLabels).Accepted {
					b.Fatal("rejected")
				}
			}
			b.ReportMetric(float64(core.MaxBits(detLabels)), "labelbits")
		})
		b.Run(fmt.Sprintf("rand/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !engine.Verify(engine.FromRPLS(rand), cfg, randLabels, engine.WithSeed(uint64(i))).Accepted {
					b.Fatal("rejected")
				}
			}
			b.ReportMetric(float64(engine.MaxCertBits(engine.FromRPLS(rand), cfg, randLabels, 1, 1)), "certbits")
		})
	}
}

// BenchmarkProver measures certificate construction (the prover side) for
// the heaviest scheme, the Borůvka hierarchy.
func BenchmarkProver(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		cfg, err := experiments.BuildMSTConfig(n, uint64(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("mst/n=%d", n), func(b *testing.B) {
			det := mst.NewPLS()
			for i := 0; i < b.N; i++ {
				if _, err := det.Label(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossingAttack measures the full Proposition 4.3 pipeline:
// prove, collide, cross, re-verify.
func BenchmarkCrossingAttack(b *testing.B) {
	cfg := graph.NewConfig(graph.Path(210))
	gadgets := crossing.PathGadgets(210)
	s := crossing.ModularDistPLS{Bits: 3}
	for i := 0; i < b.N; i++ {
		atk, err := crossing.AttackPLS(s, acyclicity.Predicate{}, cfg, gadgets)
		if err != nil {
			b.Fatal(err)
		}
		if !atk.Fooled {
			b.Fatal("attack failed")
		}
	}
}

// ---------------------------------------------------------------------------
// Engine executor benchmarks: one verification round on the round kernel
// (Sequential) and on Batched, whose single round is the one-lane plane
// path for lane-aware schemes and the kernel fallback otherwise.
// ---------------------------------------------------------------------------

func engineExecutors() []engine.Executor {
	return []engine.Executor{
		engine.NewSequential(),
		engine.NewBatched(),
	}
}

// BenchmarkEngineExecutorsRand measures one randomized round (fingerprints
// of a 32-byte payload) per executor across network sizes.
func BenchmarkEngineExecutorsRand(b *testing.B) {
	s := engine.FromRPLS(uniform.NewRPLS())
	for _, n := range []int{256, 1024, 4096} {
		cfg := experiments.BuildUniformConfig(n, 32, uint64(n))
		labels, err := s.Label(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, ex := range engineExecutors() {
			b.Run(fmt.Sprintf("%s/n=%d", ex.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !engine.Verify(s, cfg, labels, engine.WithSeed(uint64(i)), engine.WithExecutor(ex)).Accepted {
						b.Fatal("rejected")
					}
				}
			})
		}
	}
}

// BenchmarkEngineExecutorsDet measures one deterministic round (labels on
// every port, no certificate generation) per executor across sizes.
func BenchmarkEngineExecutorsDet(b *testing.B) {
	s := engine.FromPLS(spanningtree.NewPLS())
	for _, n := range []int{256, 1024, 4096} {
		cfg := experiments.BuildTreeConfig(n, uint64(n))
		labels, err := s.Label(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, ex := range engineExecutors() {
			b.Run(fmt.Sprintf("%s/n=%d", ex.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !engine.Verify(s, cfg, labels, engine.WithExecutor(ex)).Accepted {
						b.Fatal("rejected")
					}
				}
			})
		}
	}
}

// BenchmarkEngineEstimate measures the Monte-Carlo estimator end to end —
// the workload self-stabilization monitors and experiment sweeps run.
func BenchmarkEngineEstimate(b *testing.B) {
	s := engine.FromRPLS(spanningtree.NewRPLS())
	cfg := experiments.BuildTreeConfig(1024, 3)
	labels, err := s.Label(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels),
			engine.WithTrials(10), engine.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if sum.Acceptance != 1.0 {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkEstimateParallel measures the trial-parallel Monte-Carlo
// estimator across worker counts on a large instance. The Summary is
// bit-identical at every level (the determinism property test enforces it),
// so the only question is wall-clock: p=8 is expected to land >= 3x over
// p=1 on an 8-core runner.
func BenchmarkEstimateParallel(b *testing.B) {
	const n, trials = 4096, 256
	s := engine.FromRPLS(uniform.NewRPLS())
	cfg := experiments.BuildUniformConfig(n, 32, uint64(n))
	labels, err := s.Label(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ref engine.Summary
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			exec := engine.NewSequential()
			for i := 0; i < b.N; i++ {
				sum, err := engine.Estimate(s, cfg, engine.WithLabels(labels),
					engine.WithTrials(trials), engine.WithSeed(7),
					engine.WithExecutor(exec), engine.WithParallelism(p))
				if err != nil {
					b.Fatal(err)
				}
				if sum.Accepted != trials {
					b.Fatalf("rejected: %+v", sum)
				}
				if ref.Trials == 0 {
					ref = sum
				} else if sum != ref {
					b.Fatalf("p=%d summary diverged: %+v != %+v", p, sum, ref)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// BenchmarkAblationBoost measures how certificate size and round cost scale
// with the boosting factor t (footnote 1: linear cost, exponential
// confidence).
func BenchmarkAblationBoost(b *testing.B) {
	cfg := experiments.BuildUniformConfig(128, 32, 11)
	for _, t := range []int{1, 4, 16} {
		s := core.Boost(uniform.NewRPLS(), t)
		labels, err := s.Label(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !engine.Verify(engine.FromRPLS(s), cfg, labels, engine.WithSeed(uint64(i))).Accepted {
					b.Fatal("rejected")
				}
			}
			b.ReportMetric(float64(engine.MaxCertBits(engine.FromRPLS(s), cfg, labels, 1, 2)), "certbits")
		})
	}
}

// BenchmarkAblationFieldSize measures the ε-obliviousness knob: smaller
// target error ⇒ larger field ⇒ marginally larger certificates (§1).
func BenchmarkAblationFieldSize(b *testing.B) {
	rng := prng.New(13)
	bits := make([]byte, 4096)
	for i := range bits {
		bits[i] = rng.Bit()
	}
	s := bitstring.FromBits(bits)
	for _, eps := range []float64{1.0 / 3, 0.01, 0.0001} {
		p := field.PrimeForError(s.Len(), eps)
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fp := field.NewFingerprint(s, p, rng)
				if !fp.Matches(s) {
					b.Fatal("self-mismatch")
				}
			}
			b.ReportMetric(float64(field.Fingerprint{P: p}.Bits()), "certbits")
		})
	}
}
