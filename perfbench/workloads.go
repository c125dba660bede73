package main

import (
	"bytes"
	_ "embed"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"rpls/internal/bitstring"
	"rpls/internal/campaign"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/prng"
	"rpls/internal/schemes/mst"
	"rpls/internal/schemes/uniform"
)

// Workload sizes. Each op is short (0.1–1 s) so a run holds many of them
// and the per-op host normalization has something to average over.
const (
	mstEstimateN      = 256 // κ = 1293; compiled labels of 6.6 kbit on average
	mstEstimateTrials = 32
	uniformN          = 1024
	uniformPayload    = 32 // bytes per node
	uniformTrials     = 256
	uniformWorkers    = 2
	soundnessN        = 256 // at 128 nodes κ straddles 1024 bits across seeds
	soundnessTrials   = 16
	soundnessAssign   = 4
	campaignWorkers   = 2
	// campaignFamily is the one family of the smoke spec the campaign
	// workload keeps: its graph shape does not depend on the seed, so every
	// seed does the same amount of work.
	campaignFamily = "hypercube"
)

// smokeSpec is a frozen copy of the CI smoke campaign spec, so editing
// the CI spec cannot move the benchmark.
//
//go:embed smoke.json
var smokeSpec []byte

// opResult is what one operation did and the exact counts it produced.
type opResult struct {
	nodeTrials int64 // node × trial verifications the op ran
	cells      int   // measurement cells the op completed
	exact      exactCounts
}

// exactCounts are the paper's quantities. They are fixed by the seed, so
// every op of a run must reproduce the first op's values exactly.
type exactCounts struct {
	AvgBitsPerEdge  float64 // bits one directed edge carries per round
	CertBits        int     // κ of Definition 2.1: longest string on a port
	WorstAcceptance float64 // highest acceptance any adversary reached; 0 when none ran
}

// bench is one workload's inputs, made by its set-up, and its operation.
type bench interface {
	// op runs one closed-loop operation through the program's public API,
	// checks its output and returns the time the public call took. An
	// error counts the op as failed.
	op(tr *Tracer) (opResult, time.Duration, error)
	// probe runs the traced run's layer probes after op number i.
	probe(tr *Tracer, i int) error
	// close removes whatever the bench wrote.
	close() error
}

// workload names a benchmark workload and how many workers its ops use;
// the run sets GOMAXPROCS to that count.
type workload struct {
	name    string
	workers int
	setup   func(seed uint64, tr *Tracer, dir string) (bench, error)
	// inputSeed, when set, picks the seed the inputs are built from out of
	// the run's seed, once and before set-up is timed.
	inputSeed func(seed uint64) (uint64, error)
}

var workloads = []workload{
	{"mst-estimate", 1, setupMSTEstimate, mstSeed(mstEstimateN)},
	{"uniform-batched", uniformWorkers, setupUniformBatched, nil},
	{"mst-soundness", 1, setupMSTSoundness, mstSeed(soundnessN)},
	{"campaign-smoke", campaignWorkers, setupCampaignSmoke, nil},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	t0 := obs.Clock()
	f()
	return obs.Since(t0)
}

// --- MST instances ------------------------------------------------------

// The MST workloads build every instance with the same number of Borůvka
// phases and the same maximum degree, so every seed does the same work.
// The MST prover writes one block of fixed-width fields per phase, so the
// phase count sets the length of every label, κ, and the work of an op.
// BuildMSTConfig's count varies with its seed: at 256 nodes, seeds 0–1500
// give 4 phases (κ = 1293) in 87% of cases, 3 phases (κ = 1004) in 11% and
// 5 phases (κ = 1582) in 2%, and 3 phases carry 22% fewer label bits than
// 4. A compiled label carries a replica per neighbour, so the maximum
// degree (9–18; 11 for 31% of 4-phase seeds) sets the longest label, and
// mst-soundness's random adversary draws every label at that length.
const (
	mstPhases    = 4
	mstMaxDegree = 11
	// mstSeedDraws bounds how many seeds mstSeed tries. About 27% of seeds
	// fit, so 64 draws all miss with probability below 1e-8.
	mstSeedDraws = 64
)

// mstSeed returns the inputSeed of an MST workload on n nodes: the run's
// seed when BuildMSTConfig gives it mstPhases Borůvka phases and maximum
// degree mstMaxDegree, and otherwise the first seed that does in a stream
// drawn from it.
func mstSeed(n int) func(uint64) (uint64, error) {
	return func(seed uint64) (uint64, error) {
		draws := prng.New(seed).Fork(0x5eed)
		s := seed
		for try := 0; try < mstSeedDraws; try++ {
			cfg, err := experiments.BuildMSTConfig(n, s)
			if err != nil {
				return 0, err
			}
			if boruvkaPhases(cfg) == mstPhases && cfg.G.MaxDegree() == mstMaxDegree {
				return s, nil
			}
			s = draws.Uint64()
		}
		return 0, fmt.Errorf("no %d-node MST instance of %d Borůvka phases and maximum degree %d among %d seeds drawn from %d",
			n, mstPhases, mstMaxDegree, mstSeedDraws, seed)
	}
}

// boruvkaPhases returns how many Borůvka phases merge c's weighted,
// connected graph into one fragment; in each phase every fragment joins
// along its lightest outgoing edge. BuildMSTConfig's edge weights are
// distinct, so the lightest edge is unique.
func boruvkaPhases(c *graph.Config) int {
	n := c.G.N()
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	edges := c.G.Edges()
	weight := func(i int) int64 { return c.EdgeWeight(edges[i].U, edges[i].PortU) }
	lightest := make([]int, n) // per fragment root: index into edges, or -1
	phases := 0
	for fragments := n; fragments > 1; phases++ {
		for v := range lightest {
			lightest[v] = -1
		}
		for i, e := range edges {
			ru, rv := find(e.U), find(e.V)
			if ru == rv {
				continue
			}
			for _, r := range [2]int{ru, rv} {
				if j := lightest[r]; j < 0 || weight(i) < weight(j) {
					lightest[r] = i
				}
			}
		}
		merged := 0
		for _, i := range lightest {
			if i < 0 {
				continue
			}
			if ru, rv := find(edges[i].U), find(edges[i].V); ru != rv {
				parent[ru] = rv
				merged++
			}
		}
		if merged == 0 {
			break // disconnected: no phase can finish the merge
		}
		fragments -= merged
	}
	return phases
}

// --- mst-estimate -------------------------------------------------------

// mstEstimate is engine.Estimate of the compiled MST scheme on honest
// labels: every trial runs the full accept path on labels shared by every
// trial and every op, so label decode, fingerprinting and the inner
// verifier do nearly all the work.
type mstEstimate struct {
	seed   uint64
	cfg    *graph.Config
	scheme engine.Scheme
	labels []core.Label
	kappa  int // longest inner MST label: κ of the deterministic scheme
	exec   engine.Executor
}

func setupMSTEstimate(seed uint64, tr *Tracer, _ string) (bench, error) {
	var cfg *graph.Config
	if err := tr.Time("graph.build", 1, func() (err error) {
		cfg, err = experiments.BuildMSTConfig(mstEstimateN, seed)
		return err
	}); err != nil {
		return nil, err
	}
	s := engine.FromRPLS(mst.NewRPLS())
	labels, err := label(tr, s, cfg)
	if err != nil {
		return nil, err
	}
	b := &mstEstimate{seed: seed, cfg: cfg, scheme: s, labels: labels, exec: engine.NewSequential()}
	for v, l := range labels {
		self, _, err := splitCompiled(l, cfg.G.Degree(v))
		if err != nil {
			return nil, fmt.Errorf("mst-estimate: prover label of node %d: %w", v, err)
		}
		b.kappa = max(b.kappa, self.Len())
	}
	return b, nil
}

func (b *mstEstimate) op(tr *Tracer) (opResult, time.Duration, error) {
	var sum engine.Summary
	var err error
	h := tr.Begin("engine.estimate")
	d := timed(func() {
		sum, err = engine.Estimate(b.scheme, b.cfg, engine.WithLabels(b.labels),
			engine.WithTrials(mstEstimateTrials), engine.WithSeed(b.seed), engine.WithExecutor(b.exec))
	})
	tr.End(h, b.cfg.G.N()*mstEstimateTrials, 0, 0)
	if err != nil {
		return opResult{}, d, err
	}
	res := opResult{
		nodeTrials: int64(b.cfg.G.N()) * int64(sum.Trials),
		cells:      1,
		exact:      exactCounts{AvgBitsPerEdge: sum.AvgBitsPerEdge, CertBits: sum.MaxCertBits},
	}
	if sum.Trials != mstEstimateTrials || sum.Accepted != sum.Trials {
		return res, d, fmt.Errorf("mst-estimate: honest labels accepted in %d of %d trials", sum.Accepted, sum.Trials)
	}
	if want := core.CompiledCertBits(b.kappa); sum.MaxCertBits != want {
		return res, d, fmt.Errorf("mst-estimate: %d cert bits, want CompiledCertBits(%d) = %d", sum.MaxCertBits, b.kappa, want)
	}
	return res, d, nil
}

func (b *mstEstimate) probe(tr *Tracer, i int) error {
	seed := b.seed + uint64(i%mstEstimateTrials)
	if err := replay(tr, b.scheme, b.cfg, b.labels, seed, "core.decide"); err != nil {
		return err
	}
	n := b.cfg.G.N()
	selves := make([]core.Label, n)
	replicas := make([][]core.Label, n)
	var err error
	h := tr.Begin("bitstring.decode")
	for v := 0; v < n && err == nil; v++ {
		selves[v], replicas[v], err = splitCompiled(b.labels[v], b.cfg.G.Degree(v))
	}
	tr.End(h, n, 0, 0)
	if err != nil {
		return fmt.Errorf("mst-estimate: decode probe: %w", err)
	}
	fps := make([]field.Fingerprint, n)
	root := prng.New(seed)
	h = tr.Begin("field.fingerprint")
	for v := 0; v < n; v++ {
		fps[v] = field.NewFingerprint(selves[v], field.PrimeForLength(selves[v].Len()), root.Fork(uint64(v)).Fork(0))
	}
	tr.End(h, n, 0, 0)
	for v := range fps {
		if !fps[v].Matches(selves[v]) {
			return fmt.Errorf("mst-estimate: fingerprint of node %d does not match its own label", v)
		}
	}
	inner := mst.NewPLS()
	accepted := 0
	h = tr.Begin("schemes.verify")
	for v := 0; v < n; v++ {
		if inner.Verify(core.ViewOf(b.cfg, v), selves[v], replicas[v]) {
			accepted++
		}
	}
	tr.End(h, n, 0, 0)
	if accepted != n {
		return fmt.Errorf("mst-estimate: inner verifier accepted %d of %d honest replica sets", accepted, n)
	}
	return nil
}

func (b *mstEstimate) close() error { return nil }

// splitCompiled decodes a core.Compile label into the node's own
// sub-label and one replica per port. The layout is a sequence of
// Elias-gamma lengths, each followed by that many bits.
func splitCompiled(l core.Label, deg int) (self core.Label, replicas []core.Label, err error) {
	r := bitstring.NewReader(l)
	next := func() (core.Label, error) {
		n, err := r.ReadGamma()
		if err != nil {
			return core.Label{}, err
		}
		if n > uint64(r.Remaining()) {
			return core.Label{}, fmt.Errorf("sub-label of %d bits with %d left", n, r.Remaining())
		}
		return r.ReadString(int(n))
	}
	if self, err = next(); err != nil {
		return core.Label{}, nil, fmt.Errorf("own sub-label: %w", err)
	}
	replicas = make([]core.Label, deg)
	for i := range replicas {
		if replicas[i], err = next(); err != nil {
			return core.Label{}, nil, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if r.Remaining() != 0 {
		return core.Label{}, nil, errors.New("trailing bits after the replicas")
	}
	return self, replicas, nil
}

// --- uniform-batched ----------------------------------------------------

// uniformBatched is engine.Estimate of the Lemma C.3 scheme with the
// Batched executor on two workers. Labels are empty and the payload
// polynomial is memoized, so decode and polynomial evaluation are bypassed
// and the lane planes, CSR gather and trial sharding dominate.
type uniformBatched struct {
	seed     uint64
	cfg      *graph.Config
	scheme   engine.Scheme
	labels   []core.Label
	exec     engine.Executor
	verified bool // the first op was compared with a Sequential run
}

func setupUniformBatched(seed uint64, tr *Tracer, _ string) (bench, error) {
	var cfg *graph.Config
	_ = tr.Time("graph.build", 1, func() error {
		cfg = experiments.BuildUniformConfig(uniformN, uniformPayload, seed)
		return nil
	})
	s := engine.FromRPLS(uniform.NewRPLS())
	labels, err := label(tr, s, cfg)
	if err != nil {
		return nil, err
	}
	return &uniformBatched{seed: seed, cfg: cfg, scheme: s, labels: labels, exec: engine.NewBatched()}, nil
}

func (b *uniformBatched) estimate(exec engine.Executor, workers int) (engine.Summary, error) {
	return engine.Estimate(b.scheme, b.cfg, engine.WithLabels(b.labels), engine.WithTrials(uniformTrials),
		engine.WithSeed(b.seed), engine.WithExecutor(exec), engine.WithParallelism(workers))
}

func (b *uniformBatched) op(tr *Tracer) (opResult, time.Duration, error) {
	var sum engine.Summary
	var err error
	h := tr.Begin("engine.estimate")
	d := timed(func() { sum, err = b.estimate(b.exec, uniformWorkers) })
	tr.End(h, b.cfg.G.N()*uniformTrials, 0, 0)
	if err != nil {
		return opResult{}, d, err
	}
	res := opResult{
		nodeTrials: int64(b.cfg.G.N()) * int64(sum.Trials),
		cells:      1,
		exact:      exactCounts{AvgBitsPerEdge: sum.AvgBitsPerEdge, CertBits: sum.MaxCertBits},
	}
	if sum.Trials != uniformTrials || sum.Accepted != sum.Trials {
		return res, d, fmt.Errorf("uniform-batched: honest labels accepted in %d of %d trials", sum.Accepted, sum.Trials)
	}
	if !b.verified {
		ref, err := b.estimate(engine.NewSequential(), 1)
		if err != nil {
			return res, d, err
		}
		if ref != sum {
			return res, d, fmt.Errorf("uniform-batched: batched summary %+v differs from sequential %+v", sum, ref)
		}
		b.verified = true
	}
	return res, d, nil
}

func (b *uniformBatched) probe(tr *Tracer, i int) error {
	if err := replay(tr, b.scheme, b.cfg, b.labels, b.seed+uint64(i%uniformTrials), "core.decide"); err != nil {
		return err
	}
	// The same op on one worker, for the parallel efficiency.
	h := tr.Begin("engine.estimate.serial")
	_, err := b.estimate(b.exec, 1)
	tr.End(h, b.cfg.G.N()*uniformTrials, 0, 0)
	return err
}

func (b *uniformBatched) close() error { return nil }

// --- mst-soundness ------------------------------------------------------

// mstSoundness is engine.Soundness of the compiled MST scheme on the
// illegal twin of an MST instance: the same layers as mst-estimate, but
// down their reject paths, with a fresh label set per adversary
// assignment and the prover labelling the legal twin inside every op.
type mstSoundness struct {
	seed           uint64
	legal, illegal *graph.Config
	scheme         engine.Scheme
	exec           engine.Executor
	last           []engine.AdversaryResult
}

func setupMSTSoundness(seed uint64, tr *Tracer, _ string) (bench, error) {
	var legal, illegal *graph.Config
	if err := tr.Time("graph.build", 1, func() (err error) {
		legal, err = experiments.BuildMSTConfig(soundnessN, seed)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.Time("graph.illegal_twin", 1, func() (err error) {
		illegal, err = campaign.IllegalTwin("mst", legal, seed)
		return err
	}); err != nil {
		return nil, err
	}
	return &mstSoundness{seed: seed, legal: legal, illegal: illegal,
		scheme: engine.FromRPLS(mst.NewRPLS()), exec: engine.NewSequential()}, nil
}

func (b *mstSoundness) options() []engine.Option {
	return []engine.Option{engine.WithTrials(soundnessTrials), engine.WithSeed(b.seed), engine.WithExecutor(b.exec)}
}

func (b *mstSoundness) op(tr *Tracer) (opResult, time.Duration, error) {
	var advs []engine.AdversaryResult
	var err error
	h := tr.Begin("engine.soundness")
	d := timed(func() {
		advs, err = engine.Soundness(b.scheme, b.legal, b.illegal, append(b.options(), engine.WithAssignments(soundnessAssign))...)
	})
	tr.End(h, 0, 0, 0)
	if err != nil {
		return opResult{}, d, err
	}
	b.last = advs
	res := opResult{cells: 1}
	for _, a := range advs {
		res.nodeTrials += int64(b.illegal.G.N()) * int64(a.Assignments) * int64(a.Worst.Trials)
		res.exact.CertBits = max(res.exact.CertBits, a.Worst.MaxCertBits)
		res.exact.WorstAcceptance = max(res.exact.WorstAcceptance, a.Worst.Acceptance)
		// The per-edge cost is that of the honest prover's labels on the
		// illegal twin. Random and bit-flipped labels make certificates
		// whose length follows the bits drawn, so it would vary by seed.
		if a.Adversary == engine.AdversaryTransplant {
			res.exact.AvgBitsPerEdge = a.Worst.AvgBitsPerEdge
		}
	}
	if len(advs) != 3 {
		return res, d, fmt.Errorf("mst-soundness: %d adversary families, want 3", len(advs))
	}
	for _, a := range advs {
		if a.Worst.Trials != soundnessTrials {
			return res, d, fmt.Errorf("mst-soundness: %s ran %d trials, want %d", a.Adversary, a.Worst.Trials, soundnessTrials)
		}
		if a.Worst.CILow > 1.0/3 {
			return res, d, fmt.Errorf("mst-soundness: %s accepted %d of %d trials; Wilson lower bound %.3f exceeds 1/3",
				a.Adversary, a.Worst.Accepted, a.Worst.Trials, a.Worst.CILow)
		}
	}
	return res, d, nil
}

// probe re-runs the op's adversaries one public call at a time — prover,
// transplant, each random and bit-flipped assignment — and checks that
// the decomposition reproduces engine.Soundness exactly.
func (b *mstSoundness) probe(tr *Tracer, i int) error {
	honest, err := label(tr, b.scheme, b.legal)
	if err != nil {
		return err
	}
	estimate := func(span string, labels []core.Label) (engine.Summary, error) {
		var sum engine.Summary
		err := tr.Time(span, 1, func() (err error) {
			sum, err = engine.Estimate(b.scheme, b.illegal, append(b.options(), engine.WithLabels(labels))...)
			return err
		})
		return sum, err
	}
	var got []engine.AdversaryResult
	sum, err := estimate("engine.soundness.transplant", honest)
	if err != nil {
		return err
	}
	got = append(got, engine.AdversaryResult{Adversary: engine.AdversaryTransplant, Assignments: 1, Worst: sum})
	random, bitflip := adversarySets(tr, b.seed, honest, b.illegal.G.N())
	for _, fam := range []struct {
		name string
		sets [][]core.Label
	}{{engine.AdversaryRandom, random}, {engine.AdversaryBitFlip, bitflip}} {
		r := engine.AdversaryResult{Adversary: fam.name, Assignments: len(fam.sets)}
		for a, labels := range fam.sets {
			sum, err := estimate("engine.soundness."+fam.name, labels)
			if err != nil {
				return err
			}
			if a == 0 || sum.Acceptance > r.Worst.Acceptance {
				r.WorstIndex, r.Worst = a, sum
			}
		}
		got = append(got, r)
	}
	if !slices.Equal(got, b.last) {
		return fmt.Errorf("mst-soundness: decomposed adversaries %+v differ from engine.Soundness %+v", got, b.last)
	}
	seed := b.seed + uint64(i%soundnessTrials)
	return replay(tr, b.scheme, b.illegal, random[0], seed, "core.decide_reject")
}

// adversarySets draws the random and bit-flipped label sets engine.Soundness
// draws for this seed, in its order, from the one stream it uses.
func adversarySets(tr *Tracer, seed uint64, honest []core.Label, n int) (random, bitflip [][]core.Label) {
	rng := prng.New(seed).Fork(0xadee5a27)
	draw := func(f func() []core.Label) []core.Label {
		var labels []core.Label
		_ = tr.Time("engine.soundness.adversary_gen", 1, func() error { labels = f(); return nil })
		return labels
	}
	for a := 0; a < soundnessAssign; a++ {
		random = append(random, draw(func() []core.Label { return engine.RandomLabels(rng, n, core.MaxBits(honest)) }))
	}
	for a := 0; a < soundnessAssign; a++ {
		bitflip = append(bitflip, draw(func() []core.Label { return engine.BitFlippedLabels(rng, honest) }))
	}
	return random, bitflip
}

func (b *mstSoundness) close() error { return nil }

// --- campaign-smoke -----------------------------------------------------

// campaignSmoke runs the smoke campaign, cut to one family, with the
// in-process campaign.Runner into a fresh directory per op. It is the only
// workload that runs the campaign layer, the t-round path and the
// multiplicity cap.
type campaignSmoke struct {
	spec    campaign.Spec
	cells   int
	dir     string
	ops     int
	first   []byte   // results.jsonl of the first op
	result  opResult // counts parsed from the first op's records
	retries int
}

// smokeSpecFor returns the frozen smoke spec cut to campaignFamily, with
// the workload seed as its only seed.
func smokeSpecFor(seed uint64) (campaign.Spec, error) {
	spec, err := campaign.ParseSpec(smokeSpec)
	if err != nil {
		return campaign.Spec{}, err
	}
	var fams []campaign.FamilyAxis
	for _, f := range spec.Families {
		if f.Name == campaignFamily {
			fams = append(fams, f)
		}
	}
	if len(fams) != 1 {
		return campaign.Spec{}, fmt.Errorf("campaign-smoke: spec has %d %q families, want 1", len(fams), campaignFamily)
	}
	spec.Families = fams
	spec.Seeds = []uint64{seed}
	return spec, nil
}

func setupCampaignSmoke(seed uint64, tr *Tracer, dir string) (bench, error) {
	spec, err := smokeSpecFor(seed)
	if err != nil {
		return nil, err
	}
	var plan *campaign.Plan
	if err := tr.Time("campaign.plan", 1, func() (err error) {
		plan, err = campaign.Expand(spec)
		return err
	}); err != nil {
		return nil, err
	}
	return &campaignSmoke{spec: spec, cells: len(plan.Cells), dir: filepath.Join(dir, fmt.Sprintf("campaign-%d", os.Getpid()))}, nil
}

func (b *campaignSmoke) op(tr *Tracer) (opResult, time.Duration, error) {
	b.ops++
	dir := filepath.Join(b.dir, fmt.Sprintf("op-%d", b.ops))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return opResult{}, 0, err
	}
	defer os.RemoveAll(dir)
	var rep campaign.Report
	var err error
	h := tr.Begin("campaign.run")
	d := timed(func() { rep, err = (&campaign.Runner{Dir: dir, Parallel: campaignWorkers}).Run(b.spec) })
	tr.End(h, rep.Executed, 0, 0)
	if err != nil {
		return opResult{}, d, err
	}
	if rep.Errors != 0 || rep.Executed != b.cells {
		return opResult{}, d, fmt.Errorf("campaign-smoke: %s; want %d cells and no errors", rep, b.cells)
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.ResultsFile))
	if err != nil {
		return opResult{}, d, err
	}
	if b.first == nil {
		if err := b.count(dir); err != nil {
			return opResult{}, d, err
		}
		b.first = data
	} else if !bytes.Equal(data, b.first) {
		return b.result, d, fmt.Errorf("campaign-smoke: op %d results.jsonl differs from the first op's", b.ops)
	}
	return b.result, d, nil
}

// count derives the op's work and exact counts from its records.
func (b *campaignSmoke) count(dir string) error {
	recs, err := campaign.ReadRecords(dir)
	if err != nil {
		return err
	}
	var bits, msgs int64
	res := opResult{cells: len(recs)}
	for _, r := range recs {
		if r.Status != campaign.StatusOK {
			continue
		}
		b.retries += r.Retries
		res.nodeTrials += int64(r.N) * int64(r.Trials)
		for _, a := range r.Adversaries {
			res.nodeTrials += int64(r.N) * int64(a.Assignments) * int64(a.Trials)
			res.exact.WorstAcceptance = max(res.exact.WorstAcceptance, a.Acceptance)
		}
		bits += r.TotalBits
		msgs += r.TotalMessages
		res.exact.CertBits = max(res.exact.CertBits, r.CertBits)
	}
	if msgs > 0 {
		res.exact.AvgBitsPerEdge = float64(bits) / float64(msgs)
	}
	b.result = res
	return nil
}

// probe runs the plan once more one public call at a time on this
// goroutine — expansion, per-scheme set-up, each cell, the sink and the
// aggregates — and checks that the output matches the op's byte for byte.
func (b *campaignSmoke) probe(tr *Tracer, _ int) error {
	var plan *campaign.Plan
	if err := tr.Time("campaign.plan", 1, func() (err error) {
		plan, err = campaign.Expand(b.spec)
		return err
	}); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, c := range plan.Cells {
		if key := c.Scheme + "/" + c.Variant; !seen[key] {
			seen[key] = true
			if err := cellSetup(tr, c); err != nil {
				return err
			}
		}
	}

	dir := filepath.Join(b.dir, "probe")
	defer os.RemoveAll(dir)
	prep, err := campaign.Prepare(dir, b.spec)
	if err != nil {
		return err
	}
	var rep campaign.Report
	sink, err := campaign.NewSink(dir, prep.Todo, &rep)
	if err != nil {
		return err
	}
	for idx, c := range prep.Todo {
		h := tr.Begin("campaign.cell")
		rec := campaign.RunCell(c)
		tr.End(h, 1, c.Rounds, c.Multiplicity)
		h = tr.Begin("campaign.sink")
		err = sink.Put(idx, campaign.MarshalRecord(rec), rec.Status)
		tr.End(h, 1, 0, 0)
		if err != nil {
			sink.Close()
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if err := tr.Time("campaign.aggregate", 1, func() error {
		return campaign.WriteAggregates(dir, b.spec.Name, nil)
	}); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(dir, campaign.ResultsFile))
	if err != nil {
		return err
	}
	if !bytes.Equal(data, b.first) {
		return errors.New("campaign-smoke: one-worker probe results.jsonl differs from the op's")
	}
	return nil
}

// cellSetup times the set-up a cell of scheme variant c does before it
// verifies anything: building the legal configuration and labelling it.
func cellSetup(tr *Tracer, c campaign.Cell) error {
	var cfg *graph.Config
	var params engine.Params
	if err := tr.Time("graph.build", 1, func() (err error) {
		cfg, params, err = campaign.BuildLegal(c.Scheme, c.Family, c.N, c.Seed)
		return err
	}); err != nil {
		return err
	}
	s, err := campaign.BuildVariant(c.Scheme, c.Variant, params)
	if err != nil {
		return err
	}
	_, err = label(tr, s, cfg)
	return err
}

func (b *campaignSmoke) close() error { return os.RemoveAll(b.dir) }

// --- shared probes ------------------------------------------------------

// label runs the scheme's prover inside a schemes.label span.
func label(tr *Tracer, s engine.Scheme, cfg *graph.Config) ([]core.Label, error) {
	var labels []core.Label
	err := tr.Time("schemes.label", 1, func() (err error) {
		labels, err = s.Label(cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("prover %s: %w", s.Name(), err)
	}
	return labels, nil
}

// replay runs one trial by hand through the scheme's public Certs and
// Decide, giving node v the coins the engine's round gives it in that
// trial, prng.New(seed).Fork(v), and checks the votes against
// engine.Verify at the same seed. decideSpan names the Decide span, so
// accept and reject paths are reported apart.
func replay(tr *Tracer, s engine.Scheme, c *graph.Config, labels []core.Label, seed uint64, decideSpan string) error {
	n := c.G.N()
	certs := make([][]core.Cert, n)
	root := prng.New(seed)
	h := tr.Begin("core.certs")
	for v := 0; v < n; v++ {
		certs[v] = s.Certs(core.ViewOf(c, v), labels[v], root.Fork(uint64(v)))
	}
	tr.End(h, n, 0, 0)
	// Port i of v receives what its neighbour sent on the reverse port.
	recv := make([][]core.Cert, n)
	for v := range recv {
		recv[v] = make([]core.Cert, c.G.Degree(v))
		for i := range recv[v] {
			half := c.G.Neighbor(v, i+1)
			if p := half.RevPort - 1; p < len(certs[half.To]) {
				recv[v][i] = certs[half.To][p]
			}
		}
	}
	votes := make([]bool, n)
	h = tr.Begin(decideSpan)
	for v := 0; v < n; v++ {
		votes[v] = s.Decide(core.ViewOf(c, v), labels[v], recv[v])
	}
	tr.End(h, n, 0, 0)
	if want := engine.Verify(s, c, labels, engine.WithSeed(seed), engine.WithStats(true)).Votes; !slices.Equal(votes, want) {
		return fmt.Errorf("replayed votes of %s at seed %d differ from engine.Verify", s.Name(), seed)
	}
	return nil
}
