package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"

	"rpls/internal/engine"
	"rpls/internal/obs"
)

// File names inside a campaign directory.
const (
	SpecFile    = "spec.json"
	ResultsFile = "results.jsonl"
	BenchFile   = "BENCH_campaign.json"
)

// Cell statuses recorded in results.
const (
	StatusOK           = "ok"
	StatusIncompatible = "incompatible"
	StatusError        = "error"
)

// AdversaryRecord is one engine.Soundness family's outcome inside a Record.
type AdversaryRecord struct {
	Name        string  `json:"name"`
	Assignments int     `json:"assignments"`
	WorstIndex  int     `json:"worstIndex"`
	Trials      int     `json:"trials"`
	Accepted    int     `json:"accepted"`
	Acceptance  float64 `json:"acceptance"`
}

// Record is one cell's result line in results.jsonl. Fields are a pure
// function of the cell, so the line is byte-identical across runs, worker
// counts, and executors.
//
// The wire-accounting fields (TotalBits, TotalMessages, MaxPortBits,
// AvgBitsPerEdge) are filled by the estimate and comm measures from
// engine.Summary: exact bits on the wire under honest labels, summed over
// the cell's executed trials. Retries counts derived-seed generator
// redraws (seed-dependent random-family failures), recorded rather than
// hidden.
type Record struct {
	Cell           string            `json:"cell"`
	Scheme         string            `json:"scheme"`
	Variant        string            `json:"variant"`
	Family         string            `json:"family"`
	N              int               `json:"n"`
	M              int               `json:"m,omitempty"`
	Seed           uint64            `json:"seed"`
	Executor       string            `json:"executor"`
	Measure        string            `json:"measure"`
	Rounds         int               `json:"rounds,omitempty"`       // t-PLS rounds; omitted means 1 (see RoundCount)
	Multiplicity   int               `json:"multiplicity,omitempty"` // message cap m; omitted means unconstrained
	Status         string            `json:"status"`
	Reason         string            `json:"reason,omitempty"`
	Retries        int               `json:"retries,omitempty"`
	Trials         int               `json:"trials,omitempty"`
	Accepted       int               `json:"accepted,omitempty"`
	Acceptance     float64           `json:"acceptance,omitempty"`
	CILow          float64           `json:"ciLow,omitempty"`
	CIHigh         float64           `json:"ciHigh,omitempty"`
	LabelBits      int               `json:"labelBits,omitempty"`
	CertBits       int               `json:"certBits,omitempty"`
	TotalBits      int64             `json:"totalBits,omitempty"`
	TotalMessages  int64             `json:"totalMessages,omitempty"`
	TotalDistinct  int64             `json:"totalDistinct,omitempty"` // structurally distinct messages (<= TotalMessages)
	MaxPortBits    int               `json:"maxPortBits,omitempty"`
	AvgBitsPerEdge float64           `json:"avgBitsPerEdge,omitempty"`
	Adversaries    []AdversaryRecord `json:"adversaries,omitempty"`
}

// RoundCount is the record's verification-round count: records written
// before the rounds axis existed (and classic single-round cells, whose
// field is omitted) count as one round.
func (r Record) RoundCount() int {
	if r.Rounds < 1 {
		return 1
	}
	return r.Rounds
}

// Report summarizes one scheduler run.
type Report struct {
	Cells        int // cells in the expanded plan
	Executed     int // cells actually run this time
	Skipped      int // cells results.jsonl already recorded
	OK           int
	Incompatible int
	Errors       int
	// PriorErrors counts plan cells recorded with status "error" by earlier
	// runs. Cells are deterministic, so they are not retried — but a resumed
	// campaign must not look green while its results stream holds failures.
	PriorErrors int
}

func (r Report) String() string {
	s := fmt.Sprintf("executed %d of %d cells (%d already complete): %d ok, %d incompatible, %d errors",
		r.Executed, r.Cells, r.Skipped, r.OK, r.Incompatible, r.Errors)
	if r.PriorErrors > 0 {
		s += fmt.Sprintf("; %d error cells from earlier runs remain in results", r.PriorErrors)
	}
	return s
}

// Runner executes campaign plans into a directory with an in-process
// worker pool. It is the single-machine driver over the transport-agnostic
// core in core.go; the coordinator/worker fabric in campaign/fabric is the
// distributed one, and both produce byte-identical directories.
type Runner struct {
	Dir      string
	Parallel int // worker count; <= 0 selects GOMAXPROCS
	// Logger receives the progress stream, one record per phase event,
	// each carrying a phase=plan|execute|progress|aggregate|done attribute
	// (the CI smoke greps that sequence). Nil discards.
	Logger *slog.Logger
}

// logger resolves the structured progress sink; the default discards.
func (r *Runner) logger() *slog.Logger {
	if r.Logger != nil {
		return r.Logger
	}
	return slog.New(slog.DiscardHandler)
}

func (r *Runner) workers() int {
	if r.Parallel <= 0 {
		return goruntime.GOMAXPROCS(0)
	}
	return r.Parallel
}

// Run expands the spec and executes every cell results.jsonl does not
// already record, streaming records to it in cell order (the Sink's
// reorder buffer makes the file byte-identical for any worker count), and
// rewriting the BENCH_*.json aggregates at the end.
func (r *Runner) Run(spec Spec) (Report, error) {
	p, err := Prepare(r.Dir, spec)
	if err != nil {
		return Report{}, err
	}
	rep := p.Report
	log := r.logger()
	sp := obs.Begin("campaign.run")
	log.Info("campaign", "phase", "plan", "spec", p.Plan.Spec.Name,
		"cells", rep.Cells, "execute", rep.Executed, "skipped", rep.Skipped, "workers", r.workers())

	if len(p.Todo) > 0 {
		if err := r.execute(p.Todo, &rep, log); err != nil {
			return rep, err
		}
	}

	if err := WriteAggregates(r.Dir, p.Plan.Spec.Name, log); err != nil {
		return rep, err
	}
	sp.A, sp.B = int64(rep.Executed), int64(rep.Skipped)
	obs.End(sp)
	log.Info("campaign", "phase", "done", "spec", p.Plan.Spec.Name, "report", rep.String())
	return rep, nil
}

// execute runs the incomplete cells through the worker pool and streams
// their records out in plan order through the Sink.
func (r *Runner) execute(todo []Cell, rep *Report, log *slog.Logger) error {
	sink, err := NewSink(r.Dir, todo, rep)
	if err != nil {
		return err
	}
	defer sink.Close()
	sink.SetProgress(ProgressFunc(log, len(todo)))

	w := r.workers()
	if w > len(todo) {
		w = len(todo)
	}
	log.Info("campaign", "phase", "execute", "cells", len(todo), "workers", w)
	obsWorkers.Set(int64(w))

	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(worker int) {
			defer wg.Done()
			var busy int64 // nanoseconds spent inside RunCell, for utilization
			for idx := range jobs {
				sp := obs.Begin("campaign.cell")
				sp.Tid, sp.A = int64(worker), int64(idx)
				t0 := obsCellNanos.Start()
				rec := RunCell(todo[idx])
				obsCellNanos.Stop(t0)
				busy += int64(obs.Since(t0))
				obs.End(sp)
				obsRetries.Add(uint64(rec.Retries))
				sink.Put(idx, MarshalRecord(rec), rec.Status)
			}
			obsWorkerBusy.Observe(busy)
		}(i)
	}
	for idx := range todo {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	return sink.Err()
}

// RunCell executes one scenario cell. It never returns an error: failures
// land in the record's status and reason, so a campaign documents its holes
// instead of halting at them.
func RunCell(c Cell) Record {
	rec := Record{
		Cell:     c.ID(),
		Scheme:   c.Scheme,
		Variant:  c.Variant,
		Family:   c.Family.String(),
		N:        c.N,
		Seed:     c.Seed,
		Executor: c.Executor,
		Measure:  c.Measure,
		Status:   StatusOK,
	}
	fail := func(err error) Record {
		if errors.Is(err, ErrIncompatible) {
			rec.Status = StatusIncompatible
		} else {
			rec.Status = StatusError
		}
		rec.Reason = err.Error()
		return rec
	}

	legal, params, info, err := BuildLegalInfo(c.Scheme, c.Family, c.N, c.Seed)
	if err != nil {
		return fail(err)
	}
	rec.N, rec.M, rec.Retries = legal.G.N(), legal.G.M(), info.Retries
	s, err := BuildVariant(c.Scheme, c.Variant, params)
	if err != nil {
		return fail(err)
	}
	if c.Rounds > 1 {
		// The t-PLS cell: the variant runs sharded over t rounds of ⌈κ/t⌉
		// bits per port. A scheme the shard compiler cannot wrap is a
		// documented hole, not a failure.
		rec.Rounds = c.Rounds
		if s, err = engine.Shard(s, c.Rounds); err != nil {
			return fail(fmt.Errorf("%w: %v", ErrIncompatible, err))
		}
	}
	exec, err := engine.NewExecutor(c.Executor)
	if err != nil {
		return fail(err)
	}

	opts := []engine.Option{engine.WithSeed(c.Seed), engine.WithExecutor(exec)}
	if s.Deterministic() {
		// A coin-free execution is the same every trial: one trial measures
		// it exactly, and there is no interval to stop early on.
		opts = append(opts, engine.WithTrials(1))
	} else {
		opts = append(opts, engine.WithTrials(c.Trials), engine.WithMaxSE(c.MaxSE))
	}
	if c.Multiplicity > 0 {
		// The congestion cell: the scheme runs under a message-multiplicity
		// cap, degrading by merging or by replication (engine withCap).
		rec.Multiplicity = c.Multiplicity
		opts = append(opts, engine.WithMultiplicity(c.Multiplicity))
	}

	switch c.Measure {
	case MeasureEstimate:
		sum, err := engine.Estimate(s, legal, opts...)
		if err != nil {
			return fail(err)
		}
		rec.Trials, rec.Accepted, rec.Acceptance = sum.Trials, sum.Accepted, sum.Acceptance
		rec.CILow, rec.CIHigh = sum.CILow, sum.CIHigh
		rec.LabelBits, rec.CertBits = sum.MaxLabelBits, sum.MaxCertBits
		fillComm(&rec, sum)
	case MeasureComm:
		// The dedicated wire-accounting measure: honest labels, exact bits.
		// Acceptance is deliberately not recorded — the estimate measure
		// owns it — so a comm record reads as pure communication cost.
		sum, err := engine.Estimate(s, legal, opts...)
		if err != nil {
			return fail(err)
		}
		rec.Trials = sum.Trials
		rec.LabelBits, rec.CertBits = sum.MaxLabelBits, sum.MaxCertBits
		fillComm(&rec, sum)
	case MeasureSoundness:
		illegal, err := IllegalTwin(c.Scheme, legal, c.Seed)
		if err != nil {
			return fail(err)
		}
		advs, err := engine.Soundness(s, legal, illegal,
			append(opts, engine.WithAssignments(c.Assignments))...)
		if err != nil {
			return fail(err)
		}
		for _, a := range advs {
			rec.Adversaries = append(rec.Adversaries, AdversaryRecord{
				Name:        a.Adversary,
				Assignments: a.Assignments,
				WorstIndex:  a.WorstIndex,
				Trials:      a.Worst.Trials,
				Accepted:    a.Worst.Accepted,
				Acceptance:  a.Worst.Acceptance,
			})
			if a.Worst.MaxCertBits > rec.CertBits {
				rec.CertBits = a.Worst.MaxCertBits
			}
			if a.Worst.MaxLabelBits > rec.LabelBits {
				rec.LabelBits = a.Worst.MaxLabelBits
			}
		}
	default:
		return fail(fmt.Errorf("campaign: unknown measure %q", c.Measure))
	}
	return rec
}

// fillComm copies the estimator's wire aggregates into the record.
func fillComm(rec *Record, sum engine.Summary) {
	rec.TotalBits, rec.TotalMessages = sum.TotalBits, sum.TotalMessages
	rec.TotalDistinct = sum.TotalDistinct
	rec.MaxPortBits, rec.AvgBitsPerEdge = sum.MaxPortBits, sum.AvgBitsPerEdge
}

// ReadSpec loads the spec stored in a campaign directory.
func ReadSpec(dir string) (Spec, error) {
	data, err := os.ReadFile(filepath.Join(dir, SpecFile))
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	return ParseSpec(data)
}

// ReadRecords loads every record from a campaign directory's results file.
func ReadRecords(dir string) ([]Record, error) {
	f, err := os.Open(filepath.Join(dir, ResultsFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("campaign: results line %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: read results: %w", err)
	}
	return out, nil
}
