package engine

import (
	"math"
	"sync"

	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/obs"
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
// prepares every node once (see prepared): the trials then run only the
// coin-dependent part of each node's certificates and vote, with
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
	// The prepared nodes live for one estimate only: configurations are
	// mutated in place between calls, so they are never memoized on the
	// scheme or the executor.
	t0 := obsPrepareNanos.Start()
	var p prepared
	p.reset(s, c, labels)
	obsPrepareNanos.Stop(t0)

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
		runTrials(execs, s, &p, c, labels, o.seed, lo, hi, out)
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
func runTrials(execs []Executor, s Scheme, p *prepared, c *graph.Config, labels []core.Label, seed uint64, lo, hi int, out []trialOutcome) {
	span := hi - lo
	w := len(execs)
	if w > span {
		w = span
	}
	if w <= 1 {
		oneWorker(execs[0], s, p, c, labels, seed, lo, hi, out)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			start := lo + i*span/w
			end := lo + (i+1)*span/w
			oneWorker(execs[i], s, p, c, labels, seed, start, end, out[start-lo:end-lo])
		}(i)
	}
	wg.Wait()
}

// oneWorker runs trials [lo, hi) on a single executor. This is the
// estimator's inner loop — every Monte-Carlo trial of every campaign cell
// passes through it — so it carries the hotalloc contract: per-trial work
// must stay on the executor's reused scratch. The engine's executors run
// the prepared nodes in their lane loop; any other Executor (the tests'
// goroutine-per-node oracle) runs its own Round trial by trial.
//
//pls:hotpath
func oneWorker(exec Executor, s Scheme, p *prepared, c *graph.Config, labels []core.Label, seed uint64, lo, hi int, out []trialOutcome) {
	if e, ok := exec.(laneExecutor); ok {
		k, width := e.lanes()
		k.trials(p, width, c, labels, seed, lo, hi, out)
		return
	}
	for t := lo; t < hi; t++ {
		t0 := obsTrialOther.Start()
		votes, st := exec.Round(s, c, labels, seed+uint64(t))
		obsTrialOther.Stop(t0)
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
	if s.Deterministic() {
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
