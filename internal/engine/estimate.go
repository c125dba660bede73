package engine

import (
	"math"
	"sync"

	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/prng"
)

// The trial-parallel Monte-Carlo estimator.
//
// Estimate shards trials seed..seed+T−1 across WithParallelism workers,
// each owning a private executor (the caller's executor plus clones with
// independent scratch). Trial t's coins depend only on seed+t, and
// per-trial outcomes are merged by trial index, so the resulting Summary is
// bit-identical for every parallelism level and every executor.
//
// Early stopping keeps that guarantee: trials are computed ahead in fixed
// chunks of estimateChunk (independent of the worker count) and then folded
// in serial trial order, applying the stopping rule after each trial — the
// stopping trial is exactly the one a serial run would stop at, and any
// speculatively computed later trials are discarded.
//
// Labels are fixed across trials, so before the first chunk the estimator
// prepares every node of a core.Preparer scheme once (see prepare): the
// trials then run only the coin-dependent part of Certs and Decide, with
// bit-identical results.

// estimateChunk caps the number of trials computed ahead of the serial
// stopping scan when an early-stop rule is active. Chunks follow the fixed
// schedule estimateFirstChunk, 2×, 4×, … capped at estimateChunk — a
// deterministic sequence never derived from the worker count — so the
// stopping decision, and hence the Summary, cannot depend on parallelism.
// The geometric ramp keeps runs that stop almost immediately (detection
// latency of a freshly corrupted monitor) from speculating a full 64-trial
// batch, while long runs still amortize toward full-width batches.
const estimateChunk = 64

// estimateFirstChunk is the first chunk size of the early-stop schedule.
const estimateFirstChunk = 8

// wilsonZ is the two-sided 95% normal quantile used for Summary's interval.
const wilsonZ = 1.959963984540054

// Summary aggregates a Monte-Carlo estimate over a batch of trials.
// CILow and CIHigh bound the acceptance probability with the 95% Wilson
// score interval, which stays informative at the boundary rates 0 and 1
// where the normal-approximation interval collapses.
//
// The wire-accounting fields aggregate the executors' exact per-round
// counters over the executed trials: TotalBits and TotalMessages are sums,
// MaxCertBits and MaxPortBits are maxima, and AvgBitsPerEdge is
// TotalBits/TotalMessages — the mean bits one directed edge carries in one
// round, the paper's per-edge verification cost. Every field is folded
// from the per-trial outcome slice in serial trial order, so a Summary is
// bit-identical for any parallelism level and any executor.
type Summary struct {
	Trials         int
	Rounds         int     // verification rounds per trial (1 for classic schemes)
	Accepted       int     // trials in which every node output true
	Acceptance     float64 // Accepted / Trials (0 when Trials == 0)
	CILow          float64 // lower end of the 95% Wilson interval
	CIHigh         float64 // upper end of the 95% Wilson interval
	MaxLabelBits   int
	MaxCertBits    int     // max κ (largest string sent on a port) across all trials
	MaxPortBits    int     // largest single message observed across all trials
	TotalBits      int64   // bits on the wire summed over all executed trials
	TotalMessages  int64   // messages (directed-edge sends) over all executed trials
	TotalDistinct  int64   // structurally distinct payloads minted over all trials (<= TotalMessages)
	AvgBitsPerEdge float64 // TotalBits / TotalMessages (0 when no messages)
}

// WilsonInterval returns the 95% Wilson score interval for accepted
// successes out of trials Bernoulli trials, clamped to [0, 1]. For
// trials == 0 it returns the vacuous interval [0, 1].
func WilsonInterval(accepted, trials int) (lo, hi float64) {
	center, half := wilson(accepted, trials)
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// wilson returns the unclamped center and half-width of the 95% Wilson
// interval; the half-width is the quantity WithMaxSE compares against.
func wilson(accepted, trials int) (center, half float64) {
	if trials == 0 {
		return 0.5, 0.5
	}
	n := float64(trials)
	phat := float64(accepted) / n
	z2 := wilsonZ * wilsonZ
	denom := 1 + z2/n
	center = (phat + z2/(2*n)) / denom
	half = wilsonZ / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	return center, half
}

// Estimate runs up to WithTrials independent rounds at seeds seed, seed+1,
// … and aggregates acceptance, a Wilson confidence interval, and
// communication cost. Labels come from the prover unless WithLabels
// supplies an (adversarial) assignment. WithParallelism shards the trials
// across workers; WithMaxSE and WithStopOnReject stop the run early. The
// Summary is bit-identical for any parallelism level and any executor.
func Estimate(s Scheme, c *graph.Config, opts ...Option) (Summary, error) {
	o, err := buildValidated(s, opts)
	if err != nil {
		return Summary{}, err
	}
	labels, err := o.resolveLabels(s, c)
	if err != nil {
		return Summary{}, err
	}
	return o.estimateLabels(withCap(s, o.multiplicity), c, labels), nil
}

// trialOutcome is the per-trial data the merge needs: the acceptance vote
// and the trial's exact Stats. Outcomes are stored by trial index, so
// folding them in serial order yields the same Summary for any worker
// count.
type trialOutcome struct {
	accepted bool
	st       Stats
}

// estimateLabels is the estimator core shared by Estimate, Soundness,
// Sweep, and MaxCertBits: labels are already resolved.
func (o *options) estimateLabels(s Scheme, c *graph.Config, labels []core.Label) Summary {
	sum := Summary{MaxLabelBits: core.MaxBits(labels)}
	if o.trials <= 0 {
		sum.CILow, sum.CIHigh = WilsonInterval(0, 0)
		return sum
	}
	obsEstimates.Inc()
	sp := obs.Begin("engine.estimate")
	execs := o.shardExecutors()
	s = prepare(s, c, labels, execs[0])

	// With an early-stop rule active, compute trials ahead on the fixed
	// geometric chunk schedule; otherwise one chunk covers the whole run.
	chunk := o.trials
	if o.maxSE > 0 || o.stopOnReject {
		chunk = estimateFirstChunk
	}
	out := make([]trialOutcome, min(chunk, o.trials))

	accepted, certMax, portMax, done, rounds := 0, 0, 0, 0, 0
	totalBits, totalMsgs, totalDistinct := int64(0), int64(0), int64(0)
scan:
	for lo := 0; lo < o.trials; {
		hi := min(lo+chunk, o.trials)
		if cap(out) < hi-lo {
			out = make([]trialOutcome, hi-lo)
		}
		out = out[:hi-lo]
		runTrials(execs, s, c, labels, o.seed, lo, hi, out)
		obsChunkTrials.Observe(int64(hi - lo))
		// Fold outcomes in serial trial order; the stopping rule sees
		// exactly the prefix a serial run would have seen.
		for t := lo; t < hi; t++ {
			res := &out[t-lo]
			done++
			if res.accepted {
				accepted++
			}
			rounds = max(rounds, res.st.Rounds)
			certMax = max(certMax, res.st.MaxCertBits)
			portMax = max(portMax, res.st.MaxPortBits)
			totalBits += res.st.TotalWireBits
			totalMsgs += int64(res.st.Messages)
			totalDistinct += res.st.DistinctMessages
			if o.stopOnReject && !res.accepted {
				obsStopReject.Inc()
				break scan
			}
			if o.maxSE > 0 {
				if _, half := wilson(accepted, done); half <= o.maxSE {
					obsStopMaxSE.Inc()
					break scan
				}
			}
		}
		lo = hi
		if chunk < estimateChunk {
			chunk *= 2
		}
	}
	sum.Trials, sum.Accepted, sum.MaxCertBits = done, accepted, certMax
	sum.Rounds = rounds
	sum.MaxPortBits, sum.TotalBits, sum.TotalMessages = portMax, totalBits, totalMsgs
	sum.TotalDistinct = totalDistinct
	if totalMsgs > 0 {
		sum.AvgBitsPerEdge = float64(totalBits) / float64(totalMsgs)
	}
	sum.Acceptance = float64(accepted) / float64(done)
	sum.CILow, sum.CIHigh = WilsonInterval(accepted, done)
	obsEstimateTrials.Add(uint64(done))
	sp.A, sp.B = int64(done), int64(accepted)
	obs.End(sp)
	return sum
}

// prepare returns s with its base FromRPLS adapter answering Certs and
// Decide from per-node state built once for this estimate, when that
// adapter's RPLS implements core.Preparer; otherwise s itself (see
// prepareBase). s is left alone when Batched's lanes will run every
// trial: they already parse once per batch. That check is made once, on
// the scheme the executor receives, and not again under the wrappers:
// Batched runs sharded schemes on its embedded kernel, so those must be
// prepared. The prepared nodes live for one estimate only —
// configurations are mutated in place between calls (see
// scratch.ensure), so they are never memoized on the scheme or the
// executor.
func prepare(s Scheme, c *graph.Config, labels []core.Label, exec Executor) Scheme {
	if _, ok := exec.(*Batched); ok {
		if _, _, lanes := laneScheme(s); lanes {
			return s
		}
	}
	return prepareBase(s, c, labels)
}

// prepareBase prepares the FromRPLS adapter under s. Sharding and
// replication only reframe the base strings, so those wrappers stay around
// the prepared base. A natively capped scheme answers through
// CapCerts/CapDecide, which a prepared node does not implement, so it
// keeps the label path, as does every other shape.
func prepareBase(s Scheme, c *graph.Config, labels []core.Label) Scheme {
	switch w := s.(type) {
	case sharded:
		w.Scheme = prepareBase(w.Scheme, c, labels)
		return w
	case capScheme:
		if w.capped == nil {
			w.inner = prepareBase(w.inner, c, labels)
		}
		return w
	}
	r, ok := AsRPLS(s)
	if !ok {
		return s
	}
	p, ok := r.(core.Preparer)
	if !ok {
		return s
	}
	t0 := obsPrepareNanos.Start()
	nodes := make([]core.Prepared, len(labels))
	for v := range nodes {
		nodes[v] = p.Prepare(core.ViewOf(c, v), labels[v])
	}
	obsPrepareNanos.Stop(t0)
	return preparedScheme{Scheme: s, nodes: nodes}
}

// preparedScheme answers the round kernel's Certs and Decide from the
// prepared node at view.Node and delegates everything else to the
// FromRPLS adapter it wraps. That relies on an invariant of every
// executor: the view handed to Certs and Decide for node v is
// core.ViewOf(c, v), passed next to labels[v] — the view and label the
// node was prepared from. Workers share nodes read-only.
type preparedScheme struct {
	Scheme
	nodes []core.Prepared
}

func (w preparedScheme) Certs(view core.View, _ core.Label, rng *prng.Rand) []core.Cert {
	return w.nodes[view.Node].Certs(rng)
}

func (w preparedScheme) Decide(view core.View, _ core.Label, received []core.Cert) bool {
	return w.nodes[view.Node].Decide(received)
}

// shardExecutors resolves the worker executors: the caller's executor
// first, then one clone per extra worker.
func (o *options) shardExecutors() []Executor {
	execs := make([]Executor, o.workers())
	execs[0] = o.executor()
	for i := 1; i < len(execs); i++ {
		execs[i] = execs[0].Clone()
	}
	return execs
}

// runTrials executes trials [lo, hi), writing outcome t to out[t-lo].
// Workers take contiguous trial ranges; since every slot is indexed by
// trial, the merge is order-independent and the result identical for any
// worker count.
func runTrials(execs []Executor, s Scheme, c *graph.Config, labels []core.Label, seed uint64, lo, hi int, out []trialOutcome) {
	span := hi - lo
	w := len(execs)
	if w > span {
		w = span
	}
	if w <= 1 {
		oneWorker(execs[0], s, c, labels, seed, lo, hi, out)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			start := lo + i*span/w
			end := lo + (i+1)*span/w
			oneWorker(execs[i], s, c, labels, seed, start, end, out[start-lo:end-lo])
		}(i)
	}
	wg.Wait()
}

// oneWorker runs trials [lo, hi) on a single executor. This is the
// estimator's inner loop — every Monte-Carlo trial of every campaign cell
// passes through it — so it carries the hotalloc contract: per-trial work
// must stay on the executor's reused scratch.
//
//pls:hotpath
func oneWorker(exec Executor, s Scheme, c *graph.Config, labels []core.Label, seed uint64, lo, hi int, out []trialOutcome) {
	if b, ok := exec.(*Batched); ok {
		// The batched executor consumes the whole range at once when the
		// batch path applies: chunks of up to 64 trials share one graph
		// traversal. Outcomes are written per trial index, so the Summary is
		// unchanged. Otherwise its embedded kernel runs the trials below.
		if b.runBatch(s, c, labels, seed, lo, hi, out) {
			return
		}
		exec = &b.seq
	}
	h := trialHistogram(exec)
	for t := lo; t < hi; t++ {
		t0 := h.Start()
		votes, st := exec.Round(s, c, labels, seed+uint64(t))
		h.Stop(t0)
		out[t-lo] = trialOutcome{accepted: AllTrue(votes), st: st}
	}
}

// MaxCertBits measures the verification complexity of Definition 2.1: the
// maximum length of a string sent on a port from the given labels over
// `trials` coin draws. It rides the same trial loop as Estimate —
// certificate sizes are tracked per round, not re-drawn — so it costs
// exactly `trials` rounds. A deterministic scheme sends its label on every
// port, so its verification complexity is the largest label transmitted
// (one round suffices: the round is coin-free).
func MaxCertBits(s Scheme, c *graph.Config, labels []core.Label, trials int, seed uint64) int {
	if IsCoinFree(s) {
		trials = 1 // a coin-free execution is identical every trial
	}
	o := buildOptions([]Option{WithSeed(seed), WithTrials(trials)})
	return o.estimateLabels(s, c, labels).MaxCertBits
}

// Acceptance is the one-call Monte-Carlo acceptance estimator: the
// fraction of `trials` independent rounds (seeds seed, seed+1, …) the
// scheme accepts under the given (possibly adversarial) labels. Zero
// trials report 0. With explicit labels the only Estimate failure is a
// label/node count mismatch — a programming error that fails loudly
// rather than reading as zero acceptance.
func Acceptance(s Scheme, c *graph.Config, labels []core.Label, trials int, seed uint64) float64 {
	sum, err := Estimate(s, c, WithLabels(labels), WithTrials(trials), WithSeed(seed))
	if err != nil {
		panic(err)
	}
	return sum.Acceptance
}
