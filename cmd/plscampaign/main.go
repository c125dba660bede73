// Command plscampaign expands a declarative scenario spec into a plan of
// cells and streams them through the verification engine into a campaign
// directory (results.jsonl + manifest.jsonl + BENCH_campaign.json).
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
//	plscampaign comm -out out/ [-min-ratio 1]
//	plscampaign tradeoff -out out/ [-assert-decreasing 2]
//	plscampaign congest -out out/ [-assert-non-increasing] [-min-separated 1]
//	plscampaign list
//
// run is idempotent: cells the directory's manifest marks complete are
// skipped, so interrupting and re-running resumes where it stopped. resume
// is run with the spec re-read from the directory itself. comm prints the
// wire-accounting aggregate (BENCH_comm.json): per-(family, size) det /
// rand / compiled bits per edge with their ratios, and -min-ratio turns the
// overall det/rand ratio into an assertion for CI. tradeoff prints the κ/t
// aggregate (BENCH_tradeoff.json): bits-per-round × t curves from the
// spec's rounds axis, and -assert-decreasing demands at least that many
// distinct schemes and families with strictly decreasing curves. congest
// prints the congestion aggregate (BENCH_congest.json): verified-bits × m
// curves from the spec's multiplicity axis, -assert-non-increasing fails
// on any curve that rises toward unicast, and -min-separated demands
// schemes with a genuine broadcast/unicast gap.
//
// serve and work distribute a campaign over HTTP: serve owns the campaign
// directory and leases contiguous cell ranges to workers; work executes
// leased cells with the ordinary engine and streams records back. Crashed
// or stalled workers are handled by lease expiry and reclaim, a killed
// coordinator restarts with `serve` against the same -out (the manifest
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
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
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
		return fmt.Errorf("usage: plscampaign run|resume|serve|work|describe|list [flags]")
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
	case "comm":
		return cmdComm(rest)
	case "tradeoff":
		return cmdTradeoff(rest)
	case "congest":
		return cmdCongest(rest)
	case "list":
		return cmdList()
	default:
		return fmt.Errorf("unknown subcommand %q (run, resume, serve, work, describe, comm, tradeoff, congest, list)", cmd)
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

// cmdComm prints the wire-accounting aggregate of a campaign directory and
// optionally asserts the overall det/rand per-edge ratio, so CI fails fast
// when a metering regression erases the paper's separation.
func cmdComm(args []string) error {
	fs := flag.NewFlagSet("comm", flag.ContinueOnError)
	out := fs.String("out", "", "campaign directory holding "+campaign.BenchCommFile)
	minRatio := fs.Float64("min-ratio", 0, "fail unless the overall det/rand bits-per-edge ratio exceeds this (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory required")
	}
	bench, err := campaign.ReadBenchComm(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wire accounting for spec %s: %d comm-bearing records\n", bench.Spec, bench.Records)
	fmt.Println("scheme          | family               |    n |  det b/edge | rand b/edge | comp b/edge | det/rand | det/comp")
	fmt.Println("----------------+----------------------+------+-------------+-------------+-------------+----------+---------")
	cost := func(c *campaign.CommCost) string {
		if c == nil {
			return "          -"
		}
		return fmt.Sprintf("%11.1f", c.AvgBitsPerEdge)
	}
	rat := func(r float64) string {
		if r == 0 {
			return "       -"
		}
		return fmt.Sprintf("%8.2f", r)
	}
	for _, row := range bench.Rows {
		fmt.Printf("%-15s | %-20s | %4d | %s | %s | %s | %s | %s\n",
			row.Scheme, row.Family, row.N,
			cost(row.Variants[campaign.VariantDet]),
			cost(row.Variants[campaign.VariantRand]),
			cost(row.Variants[campaign.VariantCompiled]),
			rat(row.DetRandRatio), rat(row.DetCompiledRatio))
	}
	fmt.Printf("overall (mean of paired rows): det/rand ratio %s, det/compiled ratio %s\n",
		rat(bench.DetRandRatio), rat(bench.DetCompiledRatio))
	if *minRatio > 0 {
		if bench.DetRandRatio <= *minRatio {
			return fmt.Errorf("overall det/rand bits-per-edge ratio %.3f does not exceed %.3f — wire metering regressed or the campaign measured no det/rand pair",
				bench.DetRandRatio, *minRatio)
		}
		fmt.Printf("ratio assertion passed: %.2f > %.2f\n", bench.DetRandRatio, *minRatio)
	}
	return nil
}

// cmdTradeoff prints the κ/t tradeoff aggregate of a campaign directory
// and optionally asserts its shape: -assert-decreasing N fails unless at
// least N distinct schemes and N distinct families each contribute a
// strictly decreasing bits-per-round curve, so CI catches a sharding or
// metering regression that flattens the paper's space–time tradeoff.
func cmdTradeoff(args []string) error {
	fs := flag.NewFlagSet("tradeoff", flag.ContinueOnError)
	out := fs.String("out", "", "campaign directory holding "+campaign.BenchTradeoffFile)
	assert := fs.Int("assert-decreasing", 0, "fail unless at least this many schemes AND families have strictly decreasing bits-per-round curves (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory required")
	}
	bench, err := campaign.ReadBenchTradeoff(*out)
	if err != nil {
		return err
	}
	fmt.Printf("κ/t tradeoff for spec %s: %d comm-bearing records, %d curves\n",
		bench.Spec, bench.Records, len(bench.Curves))
	fmt.Println("scheme          | variant  | family               |    n | bits/round by t        | strictly decreasing")
	fmt.Println("----------------+----------+----------------------+------+------------------------+--------------------")
	for _, c := range bench.Curves {
		points := ""
		for i, p := range c.Points {
			if i > 0 {
				points += " "
			}
			points += fmt.Sprintf("t=%d:%d", p.Rounds, p.BitsPerRound)
		}
		fmt.Printf("%-15s | %-8s | %-20s | %4d | %-22s | %v\n",
			c.Scheme, c.Variant, c.Family, c.N, points, c.StrictlyDecreasing)
	}
	fmt.Printf("strictly decreasing: %d curves across %d schemes and %d families\n",
		bench.DecreasingCurves, bench.DecreasingSchemes, bench.DecreasingFamilies)
	if *assert > 0 {
		if bench.DecreasingSchemes < *assert || bench.DecreasingFamilies < *assert {
			return fmt.Errorf("only %d schemes × %d families show strictly decreasing bits-per-round (want >= %d × %d) — the κ/t tradeoff regressed or the campaign has no rounds axis",
				bench.DecreasingSchemes, bench.DecreasingFamilies, *assert, *assert)
		}
		fmt.Printf("tradeoff assertion passed: %d schemes × %d families >= %d × %d\n",
			bench.DecreasingSchemes, bench.DecreasingFamilies, *assert, *assert)
	}
	return nil
}

// cmdCongest prints the congestion aggregate of a campaign directory and
// optionally asserts its shape: -assert-non-increasing fails if any
// multi-point curve's verified bits rise along the broadcast → unicast
// axis (verified-bits(m=1) >= verified-bits(m=deg) on every curve), and
// -min-separated N demands at least N distinct schemes and N families
// with a strict broadcast/unicast gap — the Patt-Shamir–Perry separation.
func cmdCongest(args []string) error {
	fs := flag.NewFlagSet("congest", flag.ContinueOnError)
	out := fs.String("out", "", "campaign directory holding "+campaign.BenchCongestFile)
	assertNonInc := fs.Bool("assert-non-increasing", false, "fail if any curve's verified bits rise along the multiplicity axis")
	minSep := fs.Int("min-separated", 0, "fail unless at least this many schemes AND families show a strict broadcast/unicast gap (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out directory required")
	}
	bench, err := campaign.ReadBenchCongest(*out)
	if err != nil {
		return err
	}
	fmt.Printf("congestion (broadcast ⇄ unicast) for spec %s: %d comm-bearing records, %d curves\n",
		bench.Spec, bench.Records, len(bench.Curves))
	fmt.Println("scheme          | variant  | family               |    n | verified bits by m               | non-incr | separated")
	fmt.Println("----------------+----------+----------------------+------+----------------------------------+----------+----------")
	for _, c := range bench.Curves {
		points := ""
		for i, p := range c.Points {
			if i > 0 {
				points += " "
			}
			if p.Multiplicity == 0 {
				points += fmt.Sprintf("m=∞:%d", p.VerifiedBits)
			} else {
				points += fmt.Sprintf("m=%d:%d", p.Multiplicity, p.VerifiedBits)
			}
		}
		fmt.Printf("%-15s | %-8s | %-20s | %4d | %-32s | %-8v | %v\n",
			c.Scheme, c.Variant, c.Family, c.N, points, c.NonIncreasing, c.Separated)
	}
	fmt.Printf("separated: %d curves across %d schemes and %d families; %d violating curves\n",
		bench.SeparatedCurves, bench.SeparatedSchemes, bench.SeparatedFamilies, bench.ViolatingCurves)
	if *assertNonInc && bench.ViolatingCurves > 0 {
		return fmt.Errorf("%d curves have verified bits RISING toward unicast — congestion metering or cap degradation regressed", bench.ViolatingCurves)
	}
	if *minSep > 0 {
		if bench.SeparatedSchemes < *minSep || bench.SeparatedFamilies < *minSep {
			return fmt.Errorf("only %d schemes × %d families show a broadcast/unicast gap (want >= %d × %d) — the congestion separation regressed or the campaign has no multiplicity axis",
				bench.SeparatedSchemes, bench.SeparatedFamilies, *minSep, *minSep)
		}
		fmt.Printf("separation assertion passed: %d schemes × %d families >= %d × %d\n",
			bench.SeparatedSchemes, bench.SeparatedFamilies, *minSep, *minSep)
	}
	if *assertNonInc {
		fmt.Println("non-increasing assertion passed: every curve falls (weakly) from broadcast to unicast")
	}
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
