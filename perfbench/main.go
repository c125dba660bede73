// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads through the public engine and campaign APIs for a
// fixed time, checks every operation's output, and prints the run's
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload mst-estimate --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// makes a separate traced run and prints the per-layer metrics. Every
// timed metric is host-normalized: see README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rpls/internal/obs"
	"rpls/perfbench/hostref"
)

// r0 is the reference slice time the normalized metrics are scaled to:
// the median slice on the host the benchmark was calibrated on, so a
// normalized time reads like a raw time on a host of that speed.
const r0 = 20 * time.Millisecond

// refWindow is how many reference slices, centred on a timed call, stand
// for the host's speed during it. The median of eight follows drift over a
// few seconds but not the noise of a single 20 ms slice.
const refWindow = 8

// setupRepeats is how many times a run times its set-up; setup_s is the
// median. Each repeat builds the inputs over and over for at least
// setupMin and counts the mean, so a set-up of well under a millisecond is
// still timed over many clock ticks and cache misses.
const (
	setupRepeats = 15
	setupMin     = 10 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mst-estimate, uniform-batched, mst-soundness or campaign-smoke")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0 for the end-to-end run, 1 for the traced per-layer run")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for campaign output and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of mst-estimate, uniform-batched, mst-soundness, campaign-smoke), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(w.workers)
	r := runner{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: *work, log: stderr}
	if w.inputSeed != nil {
		s, err := w.inputSeed(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if s != *seed {
			fmt.Fprintf(stderr, "perfbench: %s: seed %d builds its inputs from seed %d\n", w.name, *seed, s)
		}
		r.seed = s
	}
	var out result
	var err error
	if *trace == 1 {
		out, err = r.traced()
	} else {
		out, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one run's settings and its host yardsticks.
type runner struct {
	w    workload
	seed uint64
	dur  time.Duration
	dir  string
	log  io.Writer
	// opRef runs on as many goroutines as the workload has workers and
	// scales the ops. setupRef runs on one goroutine and scales the
	// set-up, which runs on one: when the host takes a vCPU away, a
	// two-goroutine slice slows and a one-goroutine set-up need not.
	opRef, setupRef yardstick
}

// yardstick is a reference slice and the durations of its runs.
type yardstick struct {
	slice *hostref.Slice
	times []float64 // every run of the slice, in ns
}

func newYardstick(workers int) yardstick { return yardstick{slice: hostref.New(workers)} }

// close stops the slice's worker goroutines.
func (y *yardstick) close() {
	if y.slice != nil {
		y.slice.Close()
	}
}

// settle collects the garbage of what ran before and then runs one
// reference slice, appending its duration to y.times. The collection keeps
// leftover garbage from being collected during the slice, so a change
// that allocates more cannot flatter itself by slowing the yardstick.
func (y *yardstick) settle() error {
	runtime.GC()
	var err error
	d := timed(func() { err = y.slice.Run() })
	y.times = append(y.times, float64(d))
	return err
}

// last is the index in y.times of the slice run most recently.
func (y *yardstick) last() int { return len(y.times) - 1 }

// sample is one timed call: its raw duration, the index in its
// yardstick's times of the reference slice run just before it, and what it
// did.
type sample struct {
	d     time.Duration
	slice int
	res   opResult
}

// normalized returns the sample's duration in seconds scaled to the host's
// speed at the time: × r0 ÷ the median of the refWindow reference slices
// centred on the sample, half run before it and half after.
func (y *yardstick) normalized(s sample) float64 {
	lo := max(0, s.slice+1-refWindow/2)
	hi := min(len(y.times), s.slice+1+refWindow/2)
	return s.d.Seconds() * float64(r0) / median(y.times[lo:hi])
}

// perSecond returns the median over the op samples of count ÷ normalized
// seconds, and the same median over raw seconds.
func (r *runner) perSecond(samples []sample, count func(opResult) float64) (norm, raw float64) {
	var ns, rs []float64
	for _, s := range samples {
		ns = append(ns, count(s.res)/r.opRef.normalized(s))
		rs = append(rs, count(s.res)/s.d.Seconds())
	}
	return median(ns), median(rs)
}

func nodeTrials(res opResult) float64 { return float64(res.nodeTrials) }
func cells(res opResult) float64      { return float64(res.cells) }

// phase is what one stretch of ops measured.
type phase struct {
	attempted, failed int
	ops               []sample  // the successful ops
	rss               []float64 // resident MB when each op's call returned
	exact             exactCounts
	haveExact         bool
	// Memory deltas around the public call, traced run only.
	mallocs, allocBytes, gcs uint64
	memNodeTrials            int64
}

// opSeconds returns the raw duration of every successful op.
func (ph *phase) opSeconds() []float64 {
	var out []float64
	for _, s := range ph.ops {
		out = append(out, s.d.Seconds())
	}
	return out
}

// setup builds the workload's inputs setupRepeats times, each between two
// one-goroutine reference slices, and returns the last bench with one
// sample per repeat.
func (r *runner) setup(tr *Tracer) (bench, []sample, error) {
	if err := r.setupRef.settle(); err != nil {
		return nil, nil, err
	}
	var b bench
	var samples []sample
	for i := 0; i < setupRepeats; i++ {
		// Set-up writes nothing to disk, so the benches it replaces need no
		// closing.
		var err error
		builds := 0
		d := timed(func() {
			for t0 := obs.Clock(); err == nil && (builds == 0 || obs.Since(t0) < setupMin); builds++ {
				b, err = r.w.setup(r.seed, tr, r.dir)
			}
		}) / time.Duration(builds)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, sample{d: d, slice: r.setupRef.last()})
		if err := r.setupRef.settle(); err != nil {
			return nil, nil, err
		}
	}
	return b, samples, nil
}

// setupSeconds returns the median normalized and raw set-up times.
func (r *runner) setupSeconds(samples []sample) (norm, raw float64) {
	var ns, rs []float64
	for _, s := range samples {
		ns = append(ns, r.setupRef.normalized(s))
		rs = append(rs, s.d.Seconds())
	}
	return median(ns), median(rs)
}

// forDuration is a loop condition that holds until dur has passed.
func forDuration(dur time.Duration) func(int) bool {
	deadline := obs.Clock() + obs.Time(dur)
	return func(int) bool { return obs.Clock() < deadline }
}

// loop runs ops back to back while more(i) holds for the op index i, with
// a reference slice before the first op and after each. With a tracer it
// also records memory deltas around each op and runs the layer probes
// after it.
func (r *runner) loop(b bench, more func(int) bool, tr *Tracer, ph *phase, firstOp int) error {
	if err := r.opRef.settle(); err != nil {
		return err
	}
	for i := 0; more(i); i++ {
		ph.attempted++
		tr.SetOp(firstOp + i)
		var m0, m1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		res, d, err := b.op(tr)
		if err == nil {
			var rss float64
			if rss, err = residentMB("VmRSS:"); err == nil {
				ph.rss = append(ph.rss, rss)
			}
		}
		if tr != nil {
			runtime.ReadMemStats(&m1)
			if err == nil {
				ph.mallocs += m1.Mallocs - m0.Mallocs
				ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
				ph.gcs += uint64(m1.NumGC - m0.NumGC)
				ph.memNodeTrials += res.nodeTrials
				err = b.probe(tr, firstOp+i)
			}
		}
		if err == nil {
			err = ph.sameExact(res.exact)
		}
		if err != nil {
			ph.failed++
			if ph.failed <= 3 {
				fmt.Fprintf(r.log, "perfbench: %s: op %d failed: %v\n", r.w.name, firstOp+i, err)
			}
		} else {
			ph.ops = append(ph.ops, sample{d: d, slice: r.opRef.last(), res: res})
		}
		if err := r.opRef.settle(); err != nil {
			return err
		}
	}
	return nil
}

// sameExact records the first op's exact counts and checks that every
// later op reproduces them.
func (ph *phase) sameExact(e exactCounts) error {
	if !ph.haveExact {
		ph.exact, ph.haveExact = e, true
		return nil
	}
	if e != ph.exact {
		return fmt.Errorf("exact counts %+v differ from the first op's %+v", e, ph.exact)
	}
	return nil
}

// start makes the run's yardsticks and scratch directory; stop stops the
// yardsticks.
func (r *runner) start() error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	r.opRef, r.setupRef = newYardstick(r.w.workers), newYardstick(1)
	return nil
}

func (r *runner) stop() {
	r.opRef.close()
	r.setupRef.close()
}

// endToEnd is the untraced run: set-up, then ops for the whole duration.
func (r *runner) endToEnd() (result, error) {
	if err := r.start(); err != nil {
		return result{}, err
	}
	defer r.stop()
	b, setups, err := r.setup(nil)
	if err != nil {
		return result{}, err
	}
	var ph phase
	err = r.loop(b, forDuration(r.dur), nil, &ph, 1)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	peak, err := residentMB("VmHWM:")
	if err != nil {
		return result{}, err
	}
	setupS, rawSetupS := r.setupSeconds(setups)
	trials, rawTrials := r.perSecond(ph.ops, nodeTrials)
	cellRate, rawCells := r.perSecond(ph.ops, cells)
	fmt.Fprintf(r.log, "perfbench: %s seed %d: %d ops (%d failed); raw node_trials_per_s %.0f, cells_per_s %.3f, setup_s %.5f; ref slice %.2f ms; peak resident %.1f MB\n",
		r.w.name, r.seed, ph.attempted, ph.failed, rawTrials, rawCells, rawSetupS, median(r.opRef.times)/1e6, peak)
	return result{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: withUnits(endToEndDefs, map[string]float64{
			"setup_s":           setupS,
			"node_trials_per_s": trials,
			"cells_per_s":       cellRate,
			"mem_mb":            median(ph.rss),
			"avg_bits_per_edge": ph.exact.AvgBitsPerEdge,
			"cert_bits":         float64(ph.exact.CertBits),
		}),
	}, nil
}

// residentMB returns a resident-memory figure of this process in MB
// (2^20 bytes) from /proc/self/status: field "VmRSS:" for the current
// resident set, "VmHWM:" for its peak.
func residentMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident memory: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == field && string(f[2]) == "kB" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("resident memory: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("resident memory: no %s in /proc/self/status", field)
}
