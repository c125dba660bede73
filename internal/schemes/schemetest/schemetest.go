// Package schemetest provides the shared conformance checks every concrete
// scheme must pass: completeness on legal configurations (probability 1 for
// the one-sided schemes of this repository), prover refusal on illegal
// configurations, and soundness against the standard adversaries —
// transplanted legal labels, random labels, and single-bit flips.
//
// All checks run through the engine batch entry points on a Harness that
// makes the executor, the root seed, and the parallelism level explicit.
// Randomized acceptance is asserted with exact accepted/trial counts (the
// estimator stops a completeness run at the first rejection), never with
// float rate comparisons.
package schemetest

import (
	"testing"

	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Harness binds the conformance helpers to a root seed, a round executor,
// and a parallelism level. The zero value is usable (seed 0, the engine's
// default executor, serial); New names the seed explicitly so a scheme's
// test battery states its randomness instead of inheriting hardcoded
// constants.
type Harness struct {
	Seed uint64
	// Exec, when non-nil, runs every round on this executor. Estimates
	// clone it (Executor.Clone) once per extra worker when Parallelism > 1.
	Exec engine.Executor
	// Parallelism is forwarded to the engine estimator; 0 or 1 is serial.
	// Summaries are bit-identical at every level, so tests may crank this
	// up freely for speed.
	Parallelism int
	// Multiplicity, when >= 1, runs every round under that message-
	// multiplicity cap (engine.WithMultiplicity): m = 1 is the broadcast
	// model, m >= deg is classic unicast. 0 leaves rounds unconstrained.
	Multiplicity int
}

// New returns a harness rooted at seed on the engine's default executor.
func New(seed uint64) *Harness { return &Harness{Seed: seed} }

// OnExecutor returns a copy of h whose checks run on e.
func (h *Harness) OnExecutor(e engine.Executor) *Harness {
	c := *h
	c.Exec = e
	return &c
}

// opts assembles the engine options for one check.
func (h *Harness) opts(extra ...engine.Option) []engine.Option {
	opts := []engine.Option{engine.WithSeed(h.Seed)}
	if h.Exec != nil {
		opts = append(opts, engine.WithExecutor(h.Exec))
	}
	if h.Parallelism > 1 {
		opts = append(opts, engine.WithParallelism(h.Parallelism))
	}
	if h.Multiplicity >= 1 {
		opts = append(opts, engine.WithMultiplicity(h.Multiplicity))
	}
	return append(opts, extra...)
}

// LegalAccepted asserts the deterministic scheme accepts a legal
// configuration with honest labels.
func (h *Harness) LegalAccepted(t *testing.T, s core.PLS, c *graph.Config) {
	t.Helper()
	res, err := engine.Run(engine.FromPLS(s), c, h.opts(engine.WithStats(true))...)
	if err != nil {
		t.Fatalf("%s prover: %v", s.Name(), err)
	}
	if !res.Accepted {
		t.Fatalf("%s rejected a legal configuration; votes = %v", s.Name(), res.Votes)
	}
}

// LegalAcceptedRPLS asserts a one-sided randomized scheme accepts a legal
// configuration in every one of the given trials. The estimate stops at the
// first rejection, so a failing scheme reports the exact trial that broke.
func (h *Harness) LegalAcceptedRPLS(t *testing.T, s core.RPLS, c *graph.Config, trials int) {
	t.Helper()
	sum, err := engine.Estimate(engine.FromRPLS(s), c,
		h.opts(engine.WithTrials(trials), engine.WithStopOnReject(true))...)
	if err != nil {
		t.Fatalf("%s prover: %v", s.Name(), err)
	}
	if sum.Accepted != sum.Trials {
		t.Fatalf("%s accepted %d of %d trials on a legal configuration (first rejection at trial %d, trial seed %d)",
			s.Name(), sum.Accepted, sum.Trials, sum.Trials-1, h.Seed+uint64(sum.Trials-1))
	}
}

// ProverRefuses asserts the prover errors on an illegal configuration.
func (h *Harness) ProverRefuses(t *testing.T, s core.Prover, c *graph.Config) {
	t.Helper()
	if _, err := s.Label(c); err == nil {
		t.Error("prover labeled an illegal configuration")
	}
}

// TransplantRejected asserts a deterministic scheme rejects an illegal
// configuration labeled with the honest labels of a legal twin (a standard
// adversary: both configurations have the same node count).
func (h *Harness) TransplantRejected(t *testing.T, s core.PLS, legal, illegal *graph.Config) {
	t.Helper()
	labels, err := s.Label(legal)
	if err != nil {
		t.Fatalf("%s prover on legal twin: %v", s.Name(), err)
	}
	if engine.Verify(engine.FromPLS(s), illegal, labels, h.opts()...).Accepted {
		t.Errorf("%s fooled by labels transplanted from a legal twin", s.Name())
	}
}

// TransplantRejectedRPLS is the randomized analogue: out of the given
// trials on the illegal configuration under transplanted labels, at most
// maxAccepted may accept (trials/3 for the paper's parameters).
func (h *Harness) TransplantRejectedRPLS(t *testing.T, s core.RPLS, legal, illegal *graph.Config, trials, maxAccepted int) {
	t.Helper()
	labels, err := s.Label(legal)
	if err != nil {
		t.Fatalf("%s prover on legal twin: %v", s.Name(), err)
	}
	sum, err := engine.Estimate(engine.FromRPLS(s), illegal,
		h.opts(engine.WithLabels(labels), engine.WithTrials(trials))...)
	if err != nil {
		t.Fatalf("%s estimate: %v", s.Name(), err)
	}
	if sum.Accepted > maxAccepted {
		t.Errorf("%s accepted %d of %d trials (> %d) under transplant; ci95 = [%.3f, %.3f]",
			s.Name(), sum.Accepted, sum.Trials, maxAccepted, sum.CILow, sum.CIHigh)
	}
}

// RandomLabelsRejected asserts a deterministic scheme rejects an illegal
// configuration under many random label assignments drawn from the harness
// seed.
func (h *Harness) RandomLabelsRejected(t *testing.T, s core.PLS, illegal *graph.Config, attempts, maxLabelBits int) {
	t.Helper()
	rng := prng.New(h.Seed)
	for a := 0; a < attempts; a++ {
		labels := RandomLabels(rng, illegal.G.N(), maxLabelBits)
		if engine.Verify(engine.FromPLS(s), illegal, labels, h.opts()...).Accepted {
			t.Fatalf("%s fooled by random labels on attempt %d (seed %d)", s.Name(), a, h.Seed)
		}
	}
}

// RandomLabelsRejectedRPLS is the randomized analogue with an exact
// acceptance budget per assignment.
func (h *Harness) RandomLabelsRejectedRPLS(t *testing.T, s core.RPLS, illegal *graph.Config, attempts, trials, maxLabelBits, maxAccepted int) {
	t.Helper()
	rng := prng.New(h.Seed)
	for a := 0; a < attempts; a++ {
		labels := RandomLabels(rng, illegal.G.N(), maxLabelBits)
		sum, err := engine.Estimate(engine.FromRPLS(s), illegal,
			h.opts(engine.WithLabels(labels), engine.WithTrials(trials), engine.WithSeed(h.Seed+uint64(a)))...)
		if err != nil {
			t.Fatalf("%s estimate: %v", s.Name(), err)
		}
		if sum.Accepted > maxAccepted {
			t.Fatalf("%s accepted %d of %d trials (> %d) under random labels on attempt %d",
				s.Name(), sum.Accepted, sum.Trials, maxAccepted, a)
		}
	}
}

// LabelBitsAtMost asserts the honest labels stay within bound bits.
func (h *Harness) LabelBitsAtMost(t *testing.T, s core.PLS, c *graph.Config, bound int) {
	t.Helper()
	labels, err := s.Label(c)
	if err != nil {
		t.Fatalf("%s prover: %v", s.Name(), err)
	}
	if got := core.MaxBits(labels); got > bound {
		t.Errorf("%s labels are %d bits, want <= %d", s.Name(), got, bound)
	}
}

// CertBitsAtMost asserts the certificates generated from honest labels stay
// within bound bits over a few coin draws.
func (h *Harness) CertBitsAtMost(t *testing.T, s core.RPLS, c *graph.Config, bound int) {
	t.Helper()
	labels, err := s.Label(c)
	if err != nil {
		t.Fatalf("%s prover: %v", s.Name(), err)
	}
	if got := engine.MaxCertBits(engine.FromRPLS(s), c, labels, 5, h.Seed); got > bound {
		t.Errorf("%s certificates are %d bits, want <= %d", s.Name(), got, bound)
	}
}

// BatterySpec parameterizes the full conformance battery.
type BatterySpec struct {
	// Trials is the Monte-Carlo budget per estimate for randomized schemes.
	Trials int
	// MaxAccepted is the acceptance budget per adversarial estimate for
	// randomized schemes; deterministic schemes must always reject.
	MaxAccepted int
	// Assignments is the number of random / bit-flip label assignments the
	// soundness fan-out draws (default 4 when zero).
	Assignments int
}

// Battery runs the full conformance suite on one scheme: completeness on
// the legal configuration, prover refusal on the illegal one, and the
// engine.Soundness fan-out (transplant, random labels, single-bit flips)
// against the illegal one, plus one engine.Verify under each adversary so
// that every node decides on hostile labels. It covers deterministic and
// randomized schemes uniformly, so registry-driven tests can exercise every
// entry without scheme-specific code.
func (h *Harness) Battery(t *testing.T, s engine.Scheme, legal, illegal *graph.Config, spec BatterySpec) {
	t.Helper()
	trials := spec.Trials
	if s.Deterministic() {
		trials = 1 // every trial of a coin-free execution is identical
	}

	// Completeness. One-sided schemes must accept every trial, so the run
	// stops at the first rejection; two-sided schemes get the paper's 2/3
	// budget.
	if s.OneSided() {
		sum, err := engine.Estimate(s, legal,
			h.opts(engine.WithTrials(trials), engine.WithStopOnReject(true))...)
		if err != nil {
			t.Fatalf("%s prover on legal instance: %v", s.Name(), err)
		}
		if sum.Accepted != sum.Trials {
			t.Fatalf("%s accepted %d of %d trials on the legal instance", s.Name(), sum.Accepted, sum.Trials)
		}
	} else {
		sum, err := engine.Estimate(s, legal, h.opts(engine.WithTrials(trials))...)
		if err != nil {
			t.Fatalf("%s prover on legal instance: %v", s.Name(), err)
		}
		if 3*sum.Accepted < 2*sum.Trials {
			t.Fatalf("%s accepted only %d of %d trials on the legal instance (want >= 2/3)",
				s.Name(), sum.Accepted, sum.Trials)
		}
	}

	// The prover must refuse to certify the illegal instance.
	if _, err := s.Label(illegal); err == nil {
		t.Errorf("%s prover labeled the illegal instance", s.Name())
	}

	// Soundness fan-out across the adversary families.
	assignments := spec.Assignments
	if assignments == 0 {
		assignments = 4
	}
	results, err := engine.Soundness(s, legal, illegal,
		h.opts(engine.WithTrials(trials), engine.WithAssignments(assignments))...)
	if err != nil {
		t.Fatalf("%s soundness: %v", s.Name(), err)
	}
	if len(results) == 0 {
		t.Fatalf("%s: soundness ran no adversaries", s.Name())
	}
	for _, r := range results {
		budget := spec.MaxAccepted
		if s.Deterministic() {
			budget = 0
		}
		if r.Worst.Accepted > budget {
			t.Errorf("%s: adversary %s assignment %d accepted %d of %d trials (budget %d)",
				s.Name(), r.Adversary, r.WorstIndex, r.Worst.Accepted, r.Worst.Trials, budget)
		}
	}

	// An estimate stops deciding a run once all its trials have rejected,
	// so the fan-out above may never hand the later nodes a hostile
	// label. One Verify per adversary decides every node: a Decide that
	// panics on some input fails here. Only the absence of a panic is
	// checked; the verdicts are the fan-out's to judge.
	honest, err := s.Label(legal)
	if err != nil {
		t.Fatalf("%s prover on legal instance: %v", s.Name(), err)
	}
	n := illegal.G.N()
	maxBits := 32
	if b := core.MaxBits(honest); b > 0 {
		maxBits = b
	}
	rng := prng.New(h.Seed)
	adversaries := [][]core.Label{engine.RandomLabels(rng, n, maxBits)}
	if len(honest) == n {
		adversaries = append(adversaries, honest, engine.BitFlippedLabels(rng, honest))
	}
	for _, labels := range adversaries {
		engine.Verify(s, illegal, labels, h.opts()...)
	}
}

// RandomLabels builds n labels of up to maxBits random bits each.
func RandomLabels(rng *prng.Rand, n, maxBits int) []core.Label {
	return engine.RandomLabels(rng, n, maxBits)
}

// Log2Ceil returns ⌈log₂ n⌉ with Log2Ceil(1) = 1, used in size envelopes.
func Log2Ceil(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		return 1
	}
	return b
}
