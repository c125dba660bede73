package campaign

// The transport-agnostic campaign core. Prepare turns (directory, spec)
// into the exact set of cells still to execute — expanding the plan,
// writing the spec for provenance, repairing a torn results.jsonl tail,
// and taking the done-set from the records already there — and Sink
// restores plan order on the way back out: completed cells arrive in any
// order (local worker pool, remote fabric workers, crash-reclaimed
// re-executions) and leave as in-order appends to results.jsonl, the one
// checkpoint. WriteAggregates rewrites the BENCH_*.json files from the
// full results stream afterwards.
//
// Every scheduling strategy — the in-process Runner in scheduler.go and
// the coordinator/worker fabric in campaign/fabric — is a driver over
// these primitives. That is the whole byte-identity argument: cells are
// pure functions of their fields, MarshalRecord is the one marshaler, the
// Sink is the one writer and it writes in plan order, so where and when a
// cell ran (and whether it ran twice, because a lease was reclaimed)
// cannot show up in the output.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"rpls/internal/obs"
)

// Prepared is a campaign directory reconciled against a spec: the expanded
// plan, the cells the directory does not already mark complete (in plan
// order), and a report skeleton with the plan-level counts filled in.
type Prepared struct {
	Plan *Plan
	Todo []Cell
	// Report carries Cells, Executed (= len(Todo)), Skipped, and
	// PriorErrors; the per-status execution counts land via the Sink.
	Report Report
}

// Prepare expands the spec, creates the campaign directory, repairs any
// torn JSONL tails left by a crash, and computes the cells still to
// execute. It is the shared front half of every driver: the local Runner
// and a fabric coordinator restart both resume through this one path.
func Prepare(dir string, spec Spec) (*Prepared, error) {
	plan, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := writeSpec(filepath.Join(dir, SpecFile), plan.Spec); err != nil {
		return nil, err
	}
	// A crash mid-write can leave a torn trailing line; repair it before
	// appending, or the next append would concatenate onto the partial
	// record and corrupt it and itself at once. Every whole record names a
	// completed cell, so the records are the done-set.
	if err := truncateTornTail(filepath.Join(dir, ResultsFile)); err != nil {
		return nil, err
	}
	recorded, err := ReadRecords(dir)
	if err != nil {
		return nil, err
	}
	done := make(map[string]string, len(recorded))
	for _, rec := range recorded {
		done[rec.Cell] = rec.Status
	}

	p := &Prepared{Plan: plan}
	priorErrors := 0
	for _, c := range plan.Cells {
		status, ok := done[c.ID()]
		if !ok {
			p.Todo = append(p.Todo, c)
		} else if status == StatusError {
			priorErrors++
		}
	}
	p.Report = Report{
		Cells:       len(plan.Cells),
		Executed:    len(p.Todo),
		Skipped:     len(plan.Cells) - len(p.Todo),
		PriorErrors: priorErrors,
	}
	obsCellsSkipped.Add(uint64(p.Report.Skipped))
	return p, nil
}

// MarshalRecord renders a record as its canonical results.jsonl line (no
// trailing newline). The local scheduler and fabric workers both use this
// one marshaler, so a record's bytes are identical no matter where the
// cell ran — the byte-identity contract rides on it.
func MarshalRecord(rec Record) []byte {
	line, err := json.Marshal(rec)
	if err != nil { // a Record always marshals; keep it loud
		panic(fmt.Sprintf("campaign: marshal record: %v", err))
	}
	return line
}

// Sink owns the append end of results.jsonl and restores plan order: Put
// accepts completed cells by todo index in any order, buffers the
// out-of-order ones, and appends every contiguous prefix as it forms,
// flushing after each batch so an interrupted run resumes from its last
// whole cell. Put is idempotent per index — the first record wins, and a
// duplicate (a reclaimed lease whose original owner raced the re-issue)
// is dropped — which, with cells being pure functions, keeps the output
// byte-identical under crashes and retries. Safe for concurrent use.
type Sink struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	todo     []Cell
	lines    [][]byte
	statuses []string
	ready    []bool
	next     int // first index not yet written (the low-water mark)
	buffered int // cells received but not yet writable
	rep      *Report
	progress func(written int)
	err      error // sticky first write error
}

// NewSink opens the directory's results stream for appending. rep
// receives the per-status counts as cells are written; it may be nil.
func NewSink(dir string, todo []Cell, rep *Report) (*Sink, error) {
	f, err := os.OpenFile(filepath.Join(dir, ResultsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if rep == nil {
		rep = &Report{}
	}
	return &Sink{
		f:        f,
		w:        bufio.NewWriter(f),
		todo:     todo,
		lines:    make([][]byte, len(todo)),
		statuses: make([]string, len(todo)),
		ready:    make([]bool, len(todo)),
		rep:      rep,
	}, nil
}

// SetProgress installs a hook observing the write low-water mark after
// each in-order write. The hook runs with the sink's lock held: it must
// not call back into the sink or take locks ordered before it.
func (s *Sink) SetProgress(fn func(written int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.progress = fn
}

// Put delivers one completed cell by its todo index. Out-of-range indexes
// are errors; duplicates are silently dropped (the first record won).
func (s *Sink) Put(idx int, line []byte, status string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if idx < 0 || idx >= len(s.todo) {
		return fmt.Errorf("campaign: sink index %d out of range [0, %d)", idx, len(s.todo))
	}
	if idx < s.next || s.ready[idx] {
		return nil // duplicate delivery; the first record won
	}
	s.ready[idx] = true
	s.lines[idx] = line
	s.statuses[idx] = status
	s.buffered++
	// Reorder depth: cells finished but not yet writable because an
	// earlier cell is still outstanding.
	obsReorderDepth.SetMax(int64(s.buffered))

	wrote := false
	for s.next < len(s.todo) && s.ready[s.next] {
		l, st := s.lines[s.next], s.statuses[s.next]
		s.lines[s.next] = nil
		s.w.Write(l)
		s.w.WriteByte('\n')
		switch st {
		case StatusOK:
			s.rep.OK++
			obsCellsOK.Inc()
		case StatusIncompatible:
			s.rep.Incompatible++
			obsCellsIncompatible.Inc()
		default:
			s.rep.Errors++
			obsCellsError.Inc()
		}
		s.next++
		s.buffered--
		wrote = true
		if s.progress != nil {
			s.progress(s.next)
		}
	}
	if wrote {
		if err := s.w.Flush(); err != nil {
			s.err = fmt.Errorf("campaign: write results: %w", err)
			return s.err
		}
	}
	return nil
}

// Written returns the write low-water mark: every todo index below it is
// durably appended, in plan order.
func (s *Sink) Written() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Buffered returns the count of cells received but not yet writable (the
// current reorder-buffer depth).
func (s *Sink) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffered
}

// Done reports whether every todo cell has been written.
func (s *Sink) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next == len(s.todo)
}

// Err returns the sticky first write error, if any.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close closes the results stream (already flushed per batch).
// Out-of-order cells still buffered at close are discarded: they cannot be
// written without violating plan order, and their cells simply re-execute
// on resume.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.f.Close()
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("campaign: %w", err)
	}
	return err
}

// ProgressFunc returns a Sink progress hook that logs phase=progress
// records with throughput and ETA, spaced roughly eight times over the
// run and always firing when the last cell lands.
func ProgressFunc(log *slog.Logger, total int) func(written int) {
	every := total / 8
	if every < 1 {
		every = 1
	}
	start := obs.Clock()
	return func(written int) {
		if written%every != 0 && written != total {
			return
		}
		elapsed := obs.Since(start)
		rate := 0.0
		if elapsed > 0 {
			rate = float64(written) / elapsed.Seconds()
		}
		etaMs := int64(0)
		if rate > 0 {
			etaMs = int64(float64(total-written) / rate * 1000)
		}
		obsRateMilli.Set(int64(rate * 1000))
		obsEtaMillis.Set(etaMs)
		log.Info("campaign", "phase", "progress",
			"done", written, "total", total,
			"cellsPerSec", fmt.Sprintf("%.1f", rate), "etaMs", etaMs)
	}
}

// WriteAggregates re-reads the directory's full results stream and
// rewrites BENCH_campaign.json and BENCH_curves.json, logging one
// phase=aggregate record per non-empty aggregate. Every driver calls it
// exactly once, after its last cell is written.
func WriteAggregates(dir, specName string, log *slog.Logger) error {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	recs, err := ReadRecords(dir)
	if err != nil {
		return err
	}
	bench := Aggregate(specName, recs)
	if err := writeBenchJSON(filepath.Join(dir, BenchFile), bench); err != nil {
		return err
	}
	curves := AggregateCurves(specName, recs)
	if err := writeBenchJSON(filepath.Join(dir, BenchCurvesFile), curves); err != nil {
		return err
	}
	log.Info("campaign", "phase", "aggregate", "spec", specName,
		"records", bench.Records, "file", BenchFile)
	if curves.Records > 0 {
		log.Info("campaign", "phase", "aggregate", "spec", specName,
			"records", curves.Records, "file", BenchCurvesFile)
	}
	return nil
}

// writeBenchJSON writes one aggregate file as indented JSON.
func writeBenchJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: marshal %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// writeSpec stores the effective spec for provenance and for `plscampaign
// resume`, which re-reads it from the directory.
func writeSpec(path string, spec Spec) error {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: marshal spec: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// truncateTornTail removes a partial trailing line (no terminating newline)
// left by a run killed mid-write, so the stream stays valid JSONL and the
// next append starts on a fresh line.
func truncateTornTail(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	cut := bytes.LastIndexByte(data, '\n') + 1
	if err := os.Truncate(path, int64(cut)); err != nil {
		return fmt.Errorf("campaign: repair torn tail of %s: %w", filepath.Base(path), err)
	}
	return nil
}
