// Command plsrun builds a configuration for one of the catalogued
// predicates, resolves its schemes through the engine registry, runs a
// verification round, and reports the measured verification complexity.
//
// Usage:
//
//	plsrun -scheme mst -n 64 [-seed 7] [-mode rand] [-corrupt] [-trials 200] [-exec batched]
//	plsrun -scheme mst -n 64 -parallel 8 -maxse 0.02
//	plsrun -scheme mst -n 64 -rounds 4 -multiplicity 1
//	plsrun -scheme mst -sweep 64,256,1024 -parallel 0
//	plsrun -scheme mst -n 64 -exec batched [-metrics M.json] [-trace T.json] [-debug-addr :8797]
//	plsrun -list
//
// The observability flags (-metrics, -trace, -debug-addr, -debug-hold)
// are the shared internal/cliutil block, identical across plsrun and the
// plscampaign subcommands.
//
// -exec batched additionally prints the executor's lane telemetry
// (batches, mean lane occupancy, plane-budget narrowing, coin-free
// collapses) from the internal/obs recorder; recording never changes
// results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rpls/internal/cliutil"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/prng"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plsrun:", err)
		os.Exit(1)
	}
}

func run() error {
	scheme := flag.String("scheme", "", "registry entry to run (see -list)")
	n := flag.Int("n", 32, "approximate number of nodes")
	seed := flag.Uint64("seed", 1, "seed for generation and coins")
	mode := flag.String("mode", "both", "det, rand, or both")
	corrupt := flag.Bool("corrupt", false, "corrupt the configuration after labeling")
	trials := flag.Int("trials", 200, "Monte-Carlo trials for randomized acceptance")
	parallel := flag.Int("parallel", 1, "estimator workers (0 = all cores); summaries are bit-identical at any level")
	maxSE := flag.Float64("maxse", 0, "stop an estimate once the 95% Wilson half-width is at most this (0 = off)")
	execName := flag.String("exec", "sequential", "round executor: "+strings.Join(engine.ExecutorNames(), ", ")+" (identical results; batched runs up to 64 trials per traversal)")
	rounds := flag.Int("rounds", 1, "t-PLS verification rounds: shard every certificate into t rounds of ⌈κ/t⌉ bits per port")
	multiplicity := flag.Int("multiplicity", 0, "message-multiplicity cap m per round: 1 = broadcast, 0 = unconstrained unicast")
	sweep := flag.String("sweep", "", "comma-separated sizes; measure the randomized scheme across them")
	list := flag.Bool("list", false, "list available schemes")
	obsFlags := cliutil.RegisterObs(flag.CommandLine, true)
	flag.Parse()

	if *list {
		fmt.Println("schemes:")
		for _, e := range engine.Entries() {
			fmt.Printf("  %-20s %s%s\n", e.Name, e.Description, catalogNote(e.Name))
		}
		fmt.Println("graph families (drive with cmd/plscampaign):")
		for _, f := range graph.Families() {
			fmt.Printf("  %-20s %s\n", f.Name, f.Description)
		}
		return nil
	}

	// The recorder turns on for any explicit telemetry flag (obsFlags), and
	// for the batched executor unconditionally: its lane-occupancy counters
	// are part of the human output (recording provably never changes
	// results — see internal/engine's metrics-on/off golden tests).
	if *execName == "batched" {
		obs.SetEnabled(true)
	}
	if err := obsFlags.Start(); err != nil {
		return err
	}

	reg, ok := engine.Lookup(*scheme)
	if !ok {
		return fmt.Errorf("unknown scheme %q (try -list)", *scheme)
	}
	entry, ok := experiments.LookupCatalog(*scheme)
	if !ok {
		return fmt.Errorf("scheme %q has no instance builder; drive it from Go (see examples/)", *scheme)
	}
	if (reg.Det == nil || reg.DetParameterized) && (reg.Rand == nil || reg.RandParameterized) {
		return fmt.Errorf("scheme %q is parameterized; drive it from Go (see examples/)", *scheme)
	}
	exec, err := engine.NewExecutor(*execName)
	if err != nil {
		return err
	}

	var det, rand engine.Scheme
	if reg.Det != nil && !reg.DetParameterized && (*mode == "det" || *mode == "both") {
		det = reg.Det(engine.Params{})
	}
	if reg.Rand != nil && !reg.RandParameterized && (*mode == "rand" || *mode == "both") {
		rand = reg.Rand(engine.Params{})
	}

	if det == nil && rand == nil {
		return fmt.Errorf("scheme %q has no variant for mode %q the CLI can drive", *scheme, *mode)
	}

	if *rounds != 1 {
		// Shard both variants over t rounds; the verdicts are unchanged and
		// the per-port cost per round drops to ⌈κ/t⌉ (reported as portBits).
		if det != nil {
			if det, err = engine.Shard(det, *rounds); err != nil {
				return err
			}
		}
		if rand != nil {
			if rand, err = engine.Shard(rand, *rounds); err != nil {
				return err
			}
		}
	}

	if *sweep != "" {
		if *corrupt {
			return fmt.Errorf("-sweep measures honest instances and cannot be combined with -corrupt")
		}
		s := rand
		if s == nil {
			s = det
		}
		err := runSweep(s, entry, *sweep, *trials, *seed, exec, *parallel, *maxSE, *multiplicity)
		reportBatched(*execName)
		return obsFlags.Finish(err)
	}

	cfg, err := entry.Build(*n, *seed)
	if err != nil {
		return fmt.Errorf("build configuration: %w", err)
	}
	fmt.Printf("configuration: n=%d m=%d maxdeg=%d predicate=%s executor=%s\n",
		cfg.G.N(), cfg.G.M(), cfg.G.MaxDegree(), entry.Pred.Name(), exec.Name())
	if *rounds != 1 {
		fmt.Printf("verification: t=%d rounds (certificates sharded to ⌈κ/t⌉ bits per port per round)\n", *rounds)
	}
	if *multiplicity > 0 {
		fmt.Printf("verification: multiplicity cap m=%d (ports partitioned into <= m classes of identical payloads)\n", *multiplicity)
	}

	// Label before any corruption: faults strike after certification.
	var detLabels, randLabels []core.Label
	if det != nil {
		if detLabels, err = det.Label(cfg); err != nil {
			return fmt.Errorf("deterministic prover: %w", err)
		}
	}
	if rand != nil {
		if randLabels, err = rand.Label(cfg); err != nil {
			return fmt.Errorf("randomized prover: %w", err)
		}
	}

	if *corrupt {
		if err := entry.Corrupt(cfg, prng.New(*seed+1)); err != nil {
			return fmt.Errorf("corrupt: %w", err)
		}
		fmt.Printf("configuration corrupted; predicate now %v\n", entry.Pred.Eval(cfg))
	}

	var detPerEdge float64
	if det != nil {
		res := engine.Verify(det, cfg, detLabels,
			engine.WithExecutor(exec), engine.WithStats(true),
			engine.WithMultiplicity(*multiplicity))
		detPerEdge = bitsPerEdge(res.Stats)
		fmt.Printf("[det ] scheme=%s accepted=%v labelBits=%d κ=%d portBits=%d wireBits=%d messages=%d bits/edge=%.1f\n",
			det.Name(), res.Accepted, res.Stats.MaxLabelBits, res.Stats.MaxCertBits,
			res.Stats.MaxPortBits, res.Stats.TotalWireBits, res.Stats.Messages, detPerEdge)
		if !res.Accepted {
			fmt.Printf("[det ] rejecting nodes: %v\n", rejectors(res.Votes))
		}
	}
	if rand != nil {
		res := engine.Verify(rand, cfg, randLabels,
			engine.WithSeed(*seed+2), engine.WithExecutor(exec),
			engine.WithMultiplicity(*multiplicity))
		sum, err := engine.Estimate(rand, cfg, engine.WithLabels(randLabels),
			engine.WithTrials(*trials), engine.WithSeed(*seed+3), engine.WithExecutor(exec),
			engine.WithParallelism(*parallel), engine.WithMaxSE(*maxSE),
			engine.WithMultiplicity(*multiplicity))
		if err != nil {
			return fmt.Errorf("acceptance estimate: %w", err)
		}
		fmt.Printf("[rand] scheme=%s accepted=%v certBits=%d labelBits=%d portBits=%d wireBits=%d bits/edge=%.1f acceptance=%.3f ci95=[%.3f,%.3f] (%d trials)\n",
			rand.Name(), res.Accepted, res.Stats.MaxCertBits,
			res.Stats.MaxLabelBits, sum.MaxPortBits, sum.TotalBits, sum.AvgBitsPerEdge,
			sum.Acceptance, sum.CILow, sum.CIHigh, sum.Trials)
		if det != nil && sum.AvgBitsPerEdge > 0 {
			fmt.Printf("[comm] det/rand per-edge ratio %.2f (det %.1f vs rand %.1f bits/edge)\n",
				detPerEdge/sum.AvgBitsPerEdge, detPerEdge, sum.AvgBitsPerEdge)
		}
	}
	reportBatched(*execName)
	return obsFlags.Finish(nil)
}

// reportBatched prints the batched executor's lane telemetry, making the
// batch shape — occupancy, plane-budget narrowing, coin-free collapses —
// visible in the ordinary human output.
func reportBatched(execName string) {
	if execName != "batched" {
		return
	}
	snap := obs.TakeSnapshot()
	lanes, _ := snap.Histogram("engine.batched.lanes")
	fmt.Printf("[obs ] batched: batches=%d mean-lanes=%.1f narrowed=%d coinfree=%d\n",
		snap.Counter("engine.batched.batches"), lanes.Mean,
		snap.Counter("engine.batched.narrowed"), snap.Counter("engine.batched.coinfree"))
}

// bitsPerEdge is the per-directed-edge per-round cost of one measured round.
func bitsPerEdge(st engine.Stats) float64 {
	if st.Messages == 0 {
		return 0
	}
	return float64(st.TotalWireBits) / float64(st.Messages)
}

// runSweep measures one scheme across instance sizes with engine.Sweep,
// sharding the sizes across the requested workers.
func runSweep(s engine.Scheme, entry experiments.CatalogEntry, sizes string, trials int, seed uint64, exec engine.Executor, parallel int, maxSE float64, multiplicity int) error {
	var ns []int
	for _, part := range strings.Split(sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			return fmt.Errorf("bad sweep size %q", part)
		}
		ns = append(ns, v)
	}
	points, err := engine.Sweep(engine.Fixed(s), entry.Build, ns,
		engine.WithTrials(trials), engine.WithSeed(seed), engine.WithExecutor(exec),
		engine.WithParallelism(parallel), engine.WithMaxSE(maxSE),
		engine.WithMultiplicity(multiplicity))
	if err != nil {
		return err
	}
	fmt.Printf("sweep: scheme=%s trials=%d executor=%s workers=%d\n", s.Name(), trials, exec.Name(), parallel)
	fmt.Println("      n |       m | label bits | cert bits | bits/edge | acceptance |    ci95")
	fmt.Println("--------+---------+------------+-----------+-----------+------------+---------------")
	for _, p := range points {
		fmt.Printf("%7d | %7d | %10d | %9d | %9.1f | %10.3f | [%.3f,%.3f]\n",
			p.N, p.M, p.Summary.MaxLabelBits, p.Summary.MaxCertBits, p.Summary.AvgBitsPerEdge,
			p.Summary.Acceptance, p.Summary.CILow, p.Summary.CIHigh)
	}
	return nil
}

// catalogNote flags registry entries the CLI cannot drive end to end.
func catalogNote(name string) string {
	entry, ok := experiments.LookupCatalog(name)
	switch {
	case !ok:
		return " [no instance builder; drive from Go]"
	case entry.Det == nil && entry.Rand == nil:
		return " [parameterized; drive from Go]"
	default:
		return ""
	}
}

func rejectors(votes []bool) []int {
	var out []int
	for v, vote := range votes {
		if !vote {
			out = append(out, v)
		}
	}
	return out
}
