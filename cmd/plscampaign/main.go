// Command plscampaign expands a declarative scenario spec into a plan of
// cells and streams them through the verification engine into a campaign
// directory (spec.json + results.jsonl + BENCH_campaign.json +
// BENCH_curves.json).
//
// Usage:
//
//	plscampaign run -spec examples/campaign/smoke.json -out out/ [-parallel 0]
//	plscampaign run ... [-metrics M.json] [-trace T.json] [-debug-addr :8797 [-debug-hold 45s]]
//	plscampaign resume -out out/ [-parallel 0]
//	plscampaign serve -spec S.json -out out/ -addr :8799 [-lease 8] [-heartbeat 3s] [-window N]
//	plscampaign work -addr http://host:8799 [-workers 0] [-name w1]
//
// run, resume, serve, and work all take the shared observability flags
// (-metrics, -trace, -debug-addr, -debug-hold) from internal/cliutil,
// identical to plsrun's.
//
//	plscampaign describe -spec examples/campaign/e1_e6.json [-cells]
//	plscampaign assert -out out/
//	plscampaign list
//
// run is idempotent: cells the directory's results.jsonl already records
// are skipped, so interrupting and re-running resumes where it stopped
// (results.jsonl is the checkpoint; a cell whose record is missing runs
// again). resume is run with the spec re-read from the directory itself.
// Every run also rewrites BENCH_curves.json, the curve aggregate along the
// variant, rounds and multiplicity axes. assert re-derives those curves
// from the directory's results.jsonl and stored spec.json, prints one
// table per axis, and exits 1 naming each of the spec's `curves` bounds
// that the data misses (a spec without bounds is report-only).
//
// serve and work distribute a campaign over HTTP: serve owns the campaign
// directory and leases contiguous cell ranges to workers; work executes
// leased cells with the ordinary engine and streams records back. Crashed
// or stalled workers are handled by lease expiry and reclaim, a killed
// coordinator restarts with `serve` against the same -out (results.jsonl
// is the checkpoint), and the directory stays byte-identical to a
// single-process run at any worker count. Omit -spec on serve to resume
// from the directory's own spec, exactly like `resume`.
//
// run and resume narrate progress as structured log/slog records on stdout
// (phase=plan|execute|progress|aggregate|done) and, with -metrics/-trace,
// write an internal/obs snapshot and a Chrome trace_event JSON after the
// run; -debug-addr serves expvar, pprof, /metrics, and /trace live during
// it. Telemetry never changes results: the campaign's metrics-on/off
// byte-compare test enforces it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rpls/internal/campaign"
	"rpls/internal/campaign/fabric"
	"rpls/internal/cliutil"
	"rpls/internal/engine"
	"rpls/internal/graph"

	// Link every scheme package so the registry is complete.
	_ "rpls/internal/schemes/all"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "plscampaign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: plscampaign run|resume|serve|work|describe|assert|list [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(rest, false)
	case "resume":
		return cmdRun(rest, true)
	case "serve":
		return cmdServe(rest)
	case "work":
		return cmdWork(rest)
	case "describe":
		return cmdDescribe(rest)
	case "assert":
		return cmdAssert(rest)
	case "list":
		return cmdList()
	default:
		return fmt.Errorf("unknown subcommand %q (run, resume, serve, work, describe, assert, list)", cmd)
	}
}

func cmdRun(args []string, resume bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	specPath := fs.String("spec", "", "spec JSON file (resume reads it from -out instead)")
	out := fs.String("out", "", "campaign directory (created if missing)")
	parallel := fs.Int("parallel", 0, "worker count (0 = all cores); results are byte-identical at any level")
	obsFlags := cliutil.RegisterObs(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory required")
	}
	if err := obsFlags.Start(); err != nil {
		return err
	}
	var spec campaign.Spec
	var err error
	if resume {
		if spec, err = campaign.ReadSpec(*out); err != nil {
			return fmt.Errorf("resume needs an existing campaign directory: %w", err)
		}
	} else {
		if *specPath == "" {
			return fmt.Errorf("-spec file required")
		}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if spec, err = campaign.ParseSpec(data); err != nil {
			return err
		}
	}
	runner := &campaign.Runner{
		Dir:      *out,
		Parallel: *parallel,
		Logger:   slog.New(slog.NewTextHandler(os.Stdout, nil)),
	}
	rep, runErr := runner.Run(spec)
	if runErr = obsFlags.Finish(runErr); runErr != nil {
		return runErr
	}
	fmt.Println(rep)
	if n := rep.Errors + rep.PriorErrors; n > 0 {
		return fmt.Errorf("%d cells errored (see %s/%s)", n, *out, campaign.ResultsFile)
	}
	return nil
}

// cmdServe runs the coordinator half of a distributed campaign: it owns
// the -out directory, serves the lease protocol on -addr, and exits when
// every cell is durably written and aggregated. Restarting it against the
// same directory resumes, exactly like `plscampaign resume`.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	specPath := fs.String("spec", "", "spec JSON file (omit to resume from the spec stored in -out)")
	out := fs.String("out", "", "campaign directory (created if missing)")
	addr := fs.String("addr", "127.0.0.1:8799", "address to serve the lease protocol on")
	leaseSize := fs.Int("lease", 8, "cells per lease")
	heartbeat := fs.Duration("heartbeat", 3*time.Second, "heartbeat interval asked of workers; leases expire after 4x this")
	window := fs.Int("window", 0, "lease window in cells past the write low-water mark (0 = 4 leases)")
	linger := fs.Duration("linger", 2*time.Second, "keep serving this long after completion so workers see done and exit")
	obsFlags := cliutil.RegisterObs(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory required")
	}
	if err := obsFlags.Start(); err != nil {
		return err
	}
	var spec campaign.Spec
	var err error
	if *specPath == "" {
		if spec, err = campaign.ReadSpec(*out); err != nil {
			return fmt.Errorf("no -spec given and none stored in -out: %w", err)
		}
	} else {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if spec, err = campaign.ParseSpec(data); err != nil {
			return err
		}
	}
	c, err := fabric.NewCoordinator(*out, spec, fabric.Options{
		LeaseSize: *leaseSize,
		LeaseTTL:  4 * *heartbeat,
		Window:    *window,
		Logger:    slog.New(slog.NewTextHandler(os.Stdout, nil)),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "coordinator on http://%s (lease=%d, ttl=%v, status: /v1/status)\n",
		ln.Addr(), *leaseSize, 4**heartbeat)

	waitErr := c.Wait(context.Background())
	// Linger so polling workers get a Done answer instead of a dead socket.
	if waitErr == nil && *linger > 0 {
		time.Sleep(*linger)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	select {
	case <-serveErr:
	default:
	}
	if waitErr = obsFlags.Finish(waitErr); waitErr != nil {
		return waitErr
	}
	rep, err := c.Finish()
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if n := rep.Errors + rep.PriorErrors; n > 0 {
		return fmt.Errorf("%d cells errored (see %s/%s)", n, *out, campaign.ResultsFile)
	}
	return nil
}

// cmdWork runs the worker half: it pulls leases from a coordinator,
// executes the cells, and exits when the coordinator reports done.
func cmdWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8799", "coordinator base URL")
	workers := fs.Int("workers", 0, "concurrent lease loops (0 = all cores)")
	name := fs.String("name", "", "worker name (default host-pid)")
	obsFlags := cliutil.RegisterObs(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obsFlags.Start(); err != nil {
		return err
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	parallel := *workers
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	w := &fabric.Worker{
		Coordinator: base,
		Name:        *name,
		Parallel:    parallel,
		Logger:      slog.New(slog.NewTextHandler(os.Stdout, nil)),
	}
	return obsFlags.Finish(w.Run(context.Background()))
}

func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	specPath := fs.String("spec", "", "spec JSON file")
	cells := fs.Bool("cells", false, "print every cell ID instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("-spec file required")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return err
	}
	plan, err := campaign.Expand(spec)
	if err != nil {
		return err
	}
	if *cells {
		for _, c := range plan.Cells {
			fmt.Println(c.ID())
		}
		return nil
	}
	fmt.Printf("spec %s: %d cells\n", plan.Spec.Name, len(plan.Cells))
	fmt.Printf("  breakdown: %s\n", plan.Breakdown())
	fmt.Printf("  schemes:   %d axes\n", len(plan.Spec.Schemes))
	fmt.Printf("  families:  %v\n", plan.Spec.Families)
	fmt.Printf("  sizes:     %v\n", plan.Spec.Sizes)
	fmt.Printf("  seeds:     %v\n", plan.Spec.Seeds)
	fmt.Printf("  measures:  %v\n", plan.Spec.Measures)
	fmt.Printf("  rounds:    %v\n", plan.Spec.Rounds)
	fmt.Printf("  multiplicity: %v\n", plan.Spec.Multiplicity)
	fmt.Printf("  executors: %v\n", plan.Spec.Executors)
	fmt.Printf("  trials:    %d (soundness assignments: %d)\n", plan.Spec.Trials, plan.Spec.Assignments)
	limit := 12
	if len(plan.Cells) < limit {
		limit = len(plan.Cells)
	}
	for _, c := range plan.Cells[:limit] {
		fmt.Println("  ", c.ID())
	}
	if len(plan.Cells) > limit {
		fmt.Printf("   … %d more (use -cells for all)\n", len(plan.Cells)-limit)
	}
	return nil
}

// cmdAssert re-derives the curve aggregate of a campaign directory from
// its results.jsonl and stored spec.json, prints one table per axis, and
// fails naming every curve bound of the spec that the curves miss.
func cmdAssert(args []string) error {
	fs := flag.NewFlagSet("assert", flag.ContinueOnError)
	out := fs.String("out", "", "campaign directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory required")
	}
	spec, err := campaign.ReadSpec(*out)
	if err != nil {
		return err
	}
	recs, err := campaign.ReadRecords(*out)
	if err != nil {
		return err
	}
	curves := campaign.AggregateCurves(spec.Name, recs)
	fmt.Printf("curves for spec %s: %d comm-bearing records\n", spec.Name, curves.Records)
	for _, a := range curves.Axes {
		fmt.Printf("\n%s axis (%s): %d curves, %d witnesses across %d schemes × %d families, %d violations",
			a.Axis, a.Metric, len(a.Curves), a.Witnesses, a.Schemes, a.Families, a.Violations)
		if a.DetRandRatio > 0 {
			fmt.Printf(", mean det/rand %.3f", a.DetRandRatio)
		}
		fmt.Println()
		fmt.Println("scheme          | variant  | family               |    n |   t |   m | points                             | shape")
		for _, c := range a.Curves {
			variant, t, m := c.Variant, strconv.Itoa(c.Rounds), strconv.Itoa(c.Multiplicity)
			switch a.Axis {
			case campaign.AxisVariant:
				variant = "*"
			case campaign.AxisRounds:
				t = "*"
			case campaign.AxisMultiplicity:
				m = "*"
			}
			points := make([]string, len(c.Points))
			for i, p := range c.Points {
				switch a.Axis {
				case campaign.AxisRounds:
					points[i] = fmt.Sprintf("%s:%d", p.At, p.MaxPortBits)
				case campaign.AxisMultiplicity:
					points[i] = fmt.Sprintf("%s:%d", p.At, p.TotalBits)
				default:
					points[i] = fmt.Sprintf("%s:%.1f", p.At, p.AvgBitsPerEdge)
				}
			}
			shape := "-"
			switch {
			case c.Violation:
				shape = "violation"
			case c.DetRandRatio > 0:
				shape = fmt.Sprintf("det/rand %.2f", c.DetRandRatio)
			case c.Witness:
				shape = "witness"
			}
			fmt.Printf("%-15s | %-8s | %-20s | %4d | %3s | %3s | %-34s | %s\n",
				c.Scheme, variant, c.Family, c.N, t, m, strings.Join(points, " "), shape)
		}
	}
	if errs := curves.Check(spec.Curves); len(errs) > 0 {
		return errors.Join(errs...)
	}
	fmt.Printf("\n%d curve bounds hold\n", len(spec.Curves))
	return nil
}

func cmdList() error {
	fmt.Println("schemes (engine registry):")
	for _, e := range engine.Entries() {
		variants := ""
		if e.Det != nil {
			variants += " det"
			if !e.DetParameterized {
				variants += " compiled"
			}
		}
		if e.Rand != nil {
			variants += " rand"
		}
		fmt.Printf("  %-20s%-20s %s\n", e.Name, variants, e.Description)
	}
	fmt.Println("\ngraph families (graph registry; plus \"catalog\" for per-predicate builders):")
	for _, f := range graph.Families() {
		kind := "deterministic"
		if f.Random {
			kind = "random"
		}
		fmt.Printf("  %-20s%-15s %s\n", f.Name, kind, f.Description)
	}
	fmt.Println("\nmeasures: estimate, soundness, comm")
	fmt.Println("executors: " + strings.Join(engine.ExecutorNames(), ", "))
	fmt.Println("rounds: any t >= 1 (t-PLS certificate sharding: ⌈κ/t⌉ bits per port per round)")
	fmt.Println("multiplicity: any m >= 0 (message cap per round: 1 = broadcast, 0 = unconstrained unicast)")
	return nil
}
