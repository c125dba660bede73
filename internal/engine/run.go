package engine

import (
	"fmt"
	goruntime "runtime"
	"sync"

	"rpls/internal/core"
	"rpls/internal/graph"
)

// options collects the functional options of the batch entry points.
type options struct {
	seed         uint64
	trials       int
	exec         Executor
	stats        bool
	labels       []core.Label
	parallelism  int     // trial/sweep workers; 0 selects GOMAXPROCS
	maxSE        float64 // stop when the Wilson half-width is at most this
	stopOnReject bool    // stop at the first rejected trial
	assignments  int     // adversarial assignments per Soundness adversary
	multiplicity int     // message-multiplicity cap m; 0 = unconstrained
}

// Option configures Run, Verify, Estimate, and Sweep.
type Option func(*options)

// WithSeed sets the root seed; node v's private coins in trial t are the
// stream prng.New(seed+t).Fork(v), so every measurement is reproducible.
// The default seed is 1.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithTrials sets the number of Monte-Carlo rounds Estimate and Sweep run
// (default 1). Trial t uses seed+t.
func WithTrials(trials int) Option { return func(o *options) { o.trials = trials } }

// WithExecutor selects the round executor (default: a fresh Sequential).
// Pass a long-lived executor to amortize its scratch buffers across calls.
func WithExecutor(e Executor) Option { return func(o *options) { o.exec = e } }

// WithStats requests the per-node vote vector in Result.Votes. Aggregate
// stats are always collected; the vote vector costs an O(n) copy per round,
// so it is off by default.
func WithStats(v bool) Option { return func(o *options) { o.stats = v } }

// WithLabels verifies under the given (possibly adversarial) label
// assignment instead of invoking the scheme's prover.
func WithLabels(labels []core.Label) Option {
	return func(o *options) { o.labels = labels }
}

// WithParallelism shards Estimate's trials (and Sweep's sizes) across p
// workers, each owning a private executor with independent scratch.
// p = 0 selects GOMAXPROCS; a negative p is rejected with an
// *OptionError. The default is 1 (serial). Trial t's coins depend only on
// seed+t and outcomes are merged by trial index, so the resulting Summary
// is bit-identical for every p.
func WithParallelism(p int) Option { return func(o *options) { o.parallelism = p } }

// WithMaxSE stops an estimate as soon as the half-width of the 95% Wilson
// interval around the acceptance rate is at most se — "the interval is
// tight enough" — instead of always burning the full trial budget.
// se <= 0 (the default) disables the rule. The stopping trial is computed
// in serial trial order, so early-stopped summaries remain bit-identical
// across parallelism levels and executors.
func WithMaxSE(se float64) Option { return func(o *options) { o.maxSE = se } }

// WithStopOnReject stops an estimate at the first rejected trial. One-sided
// completeness runs ("a legal configuration is accepted with probability
// 1") are resolved by a single rejection, so there is no point continuing;
// Summary.Accepted < Summary.Trials signals the failure with exact counts.
func WithStopOnReject(v bool) Option { return func(o *options) { o.stopOnReject = v } }

// WithAssignments sets how many label assignments Soundness draws per
// randomized adversary (default 8).
func WithAssignments(k int) Option { return func(o *options) { o.assignments = k } }

// WithMultiplicity caps the number of distinct messages a node may send
// per verification round (the congestion axis of core/congestion.go):
// m = 1 is the broadcast model, m >= deg is classic unicast, 0 (the
// default) disables the cap entirely. A one-sided single-round scheme
// merges each port class into one message (core.CapMerge), any other
// randomized scheme replicates one string per class (core.CapReplicate),
// and deterministic schemes already broadcast and are unaffected.
// Negative m is rejected by the validated entry points.
func WithMultiplicity(m int) Option { return func(o *options) { o.multiplicity = m } }

func buildOptions(opts []Option) options {
	o := options{seed: 1, trials: 1, parallelism: 1, assignments: 8}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o *options) executor() Executor {
	if o.exec == nil {
		return NewSequential()
	}
	return o.exec
}

// workers resolves the effective parallelism level.
func (o *options) workers() int {
	if o.parallelism <= 0 {
		return goruntime.GOMAXPROCS(0)
	}
	return o.parallelism
}

// resolveLabels returns the labels to verify under: WithLabels if given
// (validated against the node count), the scheme's prover otherwise.
func (o *options) resolveLabels(s Scheme, c *graph.Config) ([]core.Label, error) {
	labels := o.labels
	if labels == nil {
		var err error
		labels, err = s.Label(c)
		if err != nil {
			return nil, fmt.Errorf("prover %s: %w", s.Name(), err)
		}
	}
	if len(labels) != c.G.N() {
		return nil, fmt.Errorf("prover %s: %d labels for %d nodes", s.Name(), len(labels), c.G.N())
	}
	return labels, nil
}

// Run labels the configuration (or uses WithLabels) and executes one
// verification round. Option combinations are validated up front; a
// rejected combination returns an error matching ErrOption.
func Run(s Scheme, c *graph.Config, opts ...Option) (Result, error) {
	o, err := buildValidated(s, opts)
	if err != nil {
		return Result{}, err
	}
	labels, err := o.resolveLabels(s, c)
	if err != nil {
		return Result{}, err
	}
	return o.round(withCap(s, o.multiplicity), c, labels), nil
}

// Verify executes one round under an arbitrary (possibly adversarial) label
// assignment. It is Run without the prover and without an error path;
// WithLabels is ignored in favor of the explicit argument, and options are
// clamped rather than validated (m <= 0 runs uncapped).
func Verify(s Scheme, c *graph.Config, labels []core.Label, opts ...Option) Result {
	o := buildOptions(opts)
	return o.round(withCap(s, o.multiplicity), c, labels)
}

func (o *options) round(s Scheme, c *graph.Config, labels []core.Label) Result {
	votes, st := o.executor().Round(s, c, labels, o.seed)
	res := Result{Accepted: AllTrue(votes), Stats: st}
	if o.stats {
		res.Votes = append([]bool(nil), votes...)
	}
	return res
}

// SweepPoint is one instance size of a Sweep.
type SweepPoint struct {
	N, M    int // nodes and edges of the built configuration
	Summary Summary
}

// Sweep measures a scheme across instance sizes: for each n it builds a
// configuration, constructs the scheme for it (letting parameterized
// schemes read the instance), labels it with the prover, and runs the
// estimator. The builder's seed is derived from WithSeed and n, so sweeps
// are reproducible point by point. Each point's Summary carries the wire
// aggregates (TotalBits, MaxPortBits, AvgBitsPerEdge), so a sweep doubles
// as a communication-cost curve across sizes.
//
// WithParallelism shards the points across workers (each with a private
// executor clone); every point then estimates its trials serially, so the
// worker count stays bounded. Points are fully independent and stored by
// index, so the result is bit-identical to a serial sweep. On error, the
// points before the first failing size are returned with it.
func Sweep(scheme func(c *graph.Config) (Scheme, error), build func(n int, seed uint64) (*graph.Config, error), sizes []int, opts ...Option) ([]SweepPoint, error) {
	// Schemes are constructed per point, so only the scheme-independent
	// option checks can run at entry.
	o, err := buildValidated(nil, opts)
	if err != nil {
		return nil, err
	}
	w := o.workers()
	if w > len(sizes) {
		w = len(sizes)
	}
	points := make([]SweepPoint, len(sizes))
	errs := make([]error, len(sizes))
	if w <= 1 {
		for i, n := range sizes {
			points[i], errs[i] = o.sweepPoint(scheme, build, n)
			if errs[i] != nil {
				return points[:i], errs[i]
			}
		}
		return points, nil
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		// Each worker owns one executor and runs its points' trials serially.
		po := o
		po.parallelism = 1
		if i > 0 {
			po.exec = o.executor().Clone()
		}
		go func(i int, po options) {
			defer wg.Done()
			for idx := i; idx < len(sizes); idx += w {
				points[idx], errs[idx] = po.sweepPoint(scheme, build, sizes[idx])
			}
		}(i, po)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return points[:i], err
		}
	}
	return points, nil
}

// sweepPoint builds, labels, and estimates one instance size.
func (o *options) sweepPoint(scheme func(c *graph.Config) (Scheme, error), build func(n int, seed uint64) (*graph.Config, error), n int) (SweepPoint, error) {
	cfg, err := build(n, o.seed+uint64(n))
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep build n=%d: %w", n, err)
	}
	s, err := scheme(cfg)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep scheme n=%d: %w", n, err)
	}
	labels, err := o.resolveLabels(s, cfg)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep n=%d: %w", n, err)
	}
	s = withCap(s, o.multiplicity)
	return SweepPoint{N: cfg.G.N(), M: cfg.G.M(), Summary: o.estimateLabels(s, cfg, labels)}, nil
}

// Fixed wraps a size-independent scheme for Sweep.
func Fixed(s Scheme) func(c *graph.Config) (Scheme, error) {
	return func(*graph.Config) (Scheme, error) { return s, nil }
}
