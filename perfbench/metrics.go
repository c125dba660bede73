package main

import (
	"fmt"
	"path/filepath"

	"rpls/internal/obs"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same names and units.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics of the untraced run. Every workload reports
// every one of them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"node_trials_per_s", "1/s", "higher"},
	{"cells_per_s", "1/s", "higher"},
	{"mem_mb", "MB", "lower"},
	{"avg_bits_per_edge", "bits", "lower"},
	{"cert_bits", "bits", "lower"},
}

// perLayerDefs are the metrics of the traced run. A layer a workload does
// not run reads 0 on that workload.
var perLayerDefs = []metricDef{
	{"graph.build_ms", "ms", "lower"},
	{"schemes.label_ms", "ms", "lower"},
	{"core.certs_us_per_node", "us", "lower"},
	{"core.decide_us_per_node", "us", "lower"},
	{"core.decide_reject_us_per_node", "us", "lower"},
	{"bitstring.decode_us_per_label", "us", "lower"},
	{"field.fingerprint_us", "us", "lower"},
	{"schemes.verify_us_per_node", "us", "lower"},
	{"engine.allocs_per_node_trial", "count", "lower"},
	{"engine.alloc_bytes_per_node_trial", "bytes", "lower"},
	{"engine.gc_per_op", "count", "lower"},
	{"engine.overhead_share", "ratio", "lower"},
	{"engine.parallel_efficiency", "ratio", "higher"},
	{"engine.batched.lane_occupancy", "ratio", "higher"},
	{"engine.soundness.transplant_ms", "ms", "lower"},
	{"engine.soundness.random_ms", "ms", "lower"},
	{"engine.soundness.bitflip_ms", "ms", "lower"},
	{"engine.soundness.adversary_gen_ms", "ms", "lower"},
	{"engine.soundness.worst_acceptance", "ratio", "lower"},
	{"campaign.plan_ms", "ms", "lower"},
	{"campaign.cell_ms.p50", "ms", "lower"},
	{"campaign.cell_ms.p90", "ms", "lower"},
	{"campaign.multiround_share", "ratio", "lower"},
	{"campaign.capped_share", "ratio", "lower"},
	{"campaign.sink_us_per_record", "us", "lower"},
	{"campaign.aggregate_ms", "ms", "lower"},
	{"campaign.worker_utilization", "ratio", "higher"},
	{"campaign.retries", "count", "lower"},
	{"engine.op_ms.p50", "ms", "lower"},
	{"engine.op_ms.p90", "ms", "lower"},
	{"engine.op_ms.samples", "count", "higher"},
	{"host.ref_ms", "ms", "lower"},
	{"host.raw_node_trials_per_s", "1/s", "higher"},
	{"host.raw_cells_per_s", "1/s", "higher"},
	{"host.raw_setup_s", "s", "lower"},
	{"host.tracing_overhead", "ratio", "lower"},
}

// withUnits attaches each declared metric's unit; a declared metric
// missing from values reads 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
		}
	}
	return out
}

// traced is the per-layer run. It sets up with spans, runs half the
// duration untraced and half traced with the program's obs recorder on,
// writes the spans to a file and derives the per-layer metrics.
func (r *runner) traced() (result, error) {
	if err := r.start(); err != nil {
		return result{}, err
	}
	defer r.stop()
	tr := &Tracer{}
	b, setups, err := r.setup(tr)
	if err != nil {
		return result{}, err
	}
	defer b.close()

	var plain, tracedPh phase
	if err := r.loop(b, forDuration(r.dur/2), nil, &plain, 1); err != nil {
		return result{}, err
	}
	obs.Reset()
	obs.SetEnabled(true)
	err = r.loop(b, forDuration(r.dur-r.dur/2), tr, &tracedPh, plain.attempted+1)
	obs.SetEnabled(false)
	if err != nil {
		return result{}, err
	}
	snap := obs.TakeSnapshot()
	if plain.haveExact && tracedPh.haveExact && plain.exact != tracedPh.exact {
		tracedPh.failed++
		fmt.Fprintf(r.log, "perfbench: %s: traced exact counts %+v differ from untraced %+v\n", r.w.name, tracedPh.exact, plain.exact)
	}

	path := filepath.Join(r.dir, fmt.Sprintf("spans-%s-%d.jsonl", r.w.name, r.seed))
	if err := tr.WriteFile(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(r.log, "perfbench: %s seed %d: %d spans written to %s\n", r.w.name, r.seed, len(tr.spans), path)

	values := r.layerMetrics(tr, b, snap, &plain, &tracedPh)
	_, values["host.raw_setup_s"] = r.setupSeconds(setups)
	attempted := plain.attempted + tracedPh.attempted
	failed := plain.failed + tracedPh.failed
	return result{
		Correct:   failed == 0 && plain.attempted > 0 && tracedPh.attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   withUnits(perLayerDefs, values),
	}, nil
}

// layerMetrics derives the per-layer metrics from the spans, the obs
// snapshot and the two phases.
func (r *runner) layerMetrics(tr *Tracer, b bench, snap obs.Snapshot, plain, traced *phase) map[string]float64 {
	const us, ms = 1e3, 1e6
	v := map[string]float64{
		"graph.build_ms":                    tr.perUnit("graph.build", ms),
		"schemes.label_ms":                  tr.perUnit("schemes.label", ms),
		"core.certs_us_per_node":            tr.perUnit("core.certs", us),
		"core.decide_us_per_node":           tr.perUnit("core.decide", us),
		"core.decide_reject_us_per_node":    tr.perUnit("core.decide_reject", us),
		"bitstring.decode_us_per_label":     tr.perUnit("bitstring.decode", us),
		"field.fingerprint_us":              tr.perUnit("field.fingerprint", us),
		"schemes.verify_us_per_node":        tr.perUnit("schemes.verify", us),
		"engine.soundness.transplant_ms":    tr.perUnit("engine.soundness.transplant", ms),
		"engine.soundness.random_ms":        tr.perUnit("engine.soundness.random", ms),
		"engine.soundness.bitflip_ms":       tr.perUnit("engine.soundness.bitflip", ms),
		"campaign.plan_ms":                  tr.perUnit("campaign.plan", ms),
		"campaign.sink_us_per_record":       tr.perUnit("campaign.sink", us),
		"campaign.aggregate_ms":             tr.perUnit("campaign.aggregate", ms),
		"host.ref_ms":                       median(r.opRef.times) / ms,
		"engine.op_ms.p50":                  quantile(traced.opSeconds(), 0.5) * 1e3,
		"engine.op_ms.p90":                  quantile(traced.opSeconds(), 0.9) * 1e3,
		"engine.op_ms.samples":              float64(len(traced.ops)),
		"engine.soundness.adversary_gen_ms": tr.perUnit("engine.soundness.adversary_gen", ms),
		"engine.soundness.worst_acceptance": traced.exact.WorstAcceptance,
	}

	if traced.memNodeTrials > 0 {
		v["engine.allocs_per_node_trial"] = float64(traced.mallocs) / float64(traced.memNodeTrials)
		v["engine.alloc_bytes_per_node_trial"] = float64(traced.allocBytes) / float64(traced.memNodeTrials)
	}
	if n := len(traced.ops); n > 0 {
		v["engine.gc_per_op"] = float64(traced.gcs) / float64(n)
	}
	plainRate, rawRate := r.perSecond(plain.ops, nodeTrials)
	_, v["host.raw_cells_per_s"] = r.perSecond(plain.ops, cells)
	v["host.raw_node_trials_per_s"] = rawRate
	if tracedRate, _ := r.perSecond(traced.ops, nodeTrials); plainRate > 0 {
		v["host.tracing_overhead"] = 1 - tracedRate/plainRate
	}

	opSpans := map[int]Span{}
	for _, name := range []string{"engine.estimate", "engine.soundness", "campaign.run"} {
		for _, s := range tr.Named(name) {
			opSpans[s.Op] = s
		}
	}
	// Share of an op's per-trial time that is not the scheme's own Certs
	// and Decide, from the one-trial replay of the same op (one worker).
	if r.w.name == "mst-estimate" {
		replayed := map[int]int64{}
		for _, name := range []string{"core.certs", "core.decide"} {
			for _, s := range tr.Named(name) {
				replayed[s.Op] += s.Duration()
			}
		}
		var shares []float64
		for _, s := range tr.Named("engine.estimate") {
			if rep, ok := replayed[s.Op]; ok {
				perTrial := float64(s.Duration()) / mstEstimateTrials
				shares = append(shares, 1-float64(rep)/perTrial)
			}
		}
		v["engine.overhead_share"] = median(shares)
	}
	// Throughput at the workload's workers against twice the throughput of
	// the same op on one worker, paired op by op.
	var eff []float64
	for _, s := range tr.Named("engine.estimate.serial") {
		if op, ok := opSpans[s.Op]; ok && op.Duration() > 0 {
			eff = append(eff, float64(s.Duration())/(float64(r.w.workers)*float64(op.Duration())))
		}
	}
	v["engine.parallel_efficiency"] = median(eff)

	if h, ok := snap.Histogram("engine.batched.lanes"); ok && h.Count > 0 {
		v["engine.batched.lane_occupancy"] = h.Mean / 64
	}

	var cells []float64
	var total, multiNs, cappedNs float64
	for _, s := range tr.Named("campaign.cell") {
		d := float64(s.Duration())
		cells = append(cells, d/ms)
		total += d
		if s.A > 1 {
			multiNs += d
		}
		if s.B > 0 {
			cappedNs += d
		}
	}
	v["campaign.cell_ms.p50"] = quantile(cells, 0.5)
	v["campaign.cell_ms.p90"] = quantile(cells, 0.9)
	if total > 0 {
		v["campaign.multiround_share"] = multiNs / total
		v["campaign.capped_share"] = cappedNs / total
	}
	if h, ok := snap.Histogram("campaign.worker.busy"); ok && h.Count > 0 {
		var wall float64
		for _, s := range tr.Named("campaign.run") {
			wall += float64(s.Duration())
		}
		if wall > 0 {
			v["campaign.worker_utilization"] = float64(h.Sum) / (wall * float64(r.w.workers))
		}
	}
	if c, ok := b.(*campaignSmoke); ok {
		v["campaign.retries"] = float64(c.retries)
	}
	return v
}
