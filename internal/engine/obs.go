package engine

import "rpls/internal/obs"

// Telemetry handles. Every call site in this package is write-only — the
// obsflow analyzer rejects any read of these values from engine code, and
// the metrics-on/off golden tests prove recording never perturbs a
// Summary, vote, or Stats field. Names are stable: the -metrics snapshot
// schema and plsrun's human output key on them.
var (
	// Estimator shape: runs, executed trials, chunk schedule, early stops,
	// and the time spent preparing nodes (one observation per prepared
	// estimate).
	obsEstimates      = obs.NewCounter("engine.estimate.runs")
	obsEstimateTrials = obs.NewCounter("engine.estimate.trials")
	obsStopMaxSE      = obs.NewCounter("engine.estimate.earlystop.maxse")
	obsStopReject     = obs.NewCounter("engine.estimate.earlystop.reject")
	obsChunkTrials    = obs.NewHistogram("engine.estimate.chunk", "trials")
	obsPrepareNanos   = obs.NewHistogram("engine.estimate.prepare", "ns")

	// Per-trial timing (one observation per Monte-Carlo trial): the
	// one-lane batches of Sequential land in sequential, and the trials of
	// an executor from outside the engine (the tests' goroutine oracle) in
	// other; Batched's lanes time whole batches instead, see obsBatchNanos.
	obsTrialSequential = obs.NewHistogram("engine.trial.sequential", "ns")
	obsTrialOther      = obs.NewHistogram("engine.trial.other", "ns")

	// Batched-executor shape: lane occupancy and plane-budget narrowing.
	// The coin-free collapse is counted for both executors. plsrun
	// surfaces these so an executor choice is explainable.
	obsBatches       = obs.NewCounter("engine.batched.batches")
	obsBatchLanes    = obs.NewHistogram("engine.batched.lanes", "lanes")
	obsBatchNarrowed = obs.NewCounter("engine.batched.narrowed")
	obsBatchCoinFree = obs.NewCounter("engine.batched.coinfree")
	obsBatchNanos    = obs.NewHistogram("engine.batched.batch", "ns")

	// The decide traversal: node Decide calls made, and those an
	// acceptance-only run skipped once every lane had rejected (see
	// kernel.run). Both are added once per run, so skipped over their sum
	// is the share of decide calls the short-circuit saved.
	obsDecideNodes   = obs.NewCounter("engine.decide.nodes")
	obsDecideSkipped = obs.NewCounter("engine.decide.skipped")

	// The certificate blocks of nodes with a port: those a run computed,
	// and those it skipped because their widths were metered coin-free
	// and no deciding node read them. Both are added once per run, beside
	// the decide counters.
	obsCertsComputed = obs.NewCounter("engine.certs.computed")
	obsCertsSkipped  = obs.NewCounter("engine.certs.skipped")

	// Soundness adversary fan-out.
	obsSoundnessRuns        = obs.NewCounter("engine.soundness.runs")
	obsSoundnessAssignments = obs.NewCounter("engine.soundness.assignments")
)
