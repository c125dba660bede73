package engine_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpls/internal/campaign"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// The registry-wide rounds × multiplicity golden. Every registered variant
// that builds (det, compiled, rand) runs on two small fixture graphs —
// its conformance fixture and a campaign-built 8-node star, whose
// degree-7 hub splits into several port classes under a cap — under
// honest labels and one bit-flipped label set, at every t ∈ {1, 2, 3, 4}
// and m ∈ {0, 1, 2}. Sequential and Batched must agree on every Summary,
// and each (scheme, variant, fixture, labels) group of twelve Summaries
// must hash to the digest committed in testdata/registry_golden.txt. The
// table pins what the t-round and capped paths computed when it was
// written, so a change to how those paths run has to reproduce numbers it
// did not produce.

const registryGoldenFile = "testdata/registry_golden.txt"

var (
	goldenRounds = []int{1, 2, 3, 4}
	goldenMults  = []int{0, 1, 2}
)

// goldenFixture is one legal configuration and the params its schemes
// need.
type goldenFixture struct {
	name   string
	cfg    *graph.Config
	params engine.Params
}

// goldenFixtures returns the scheme's two fixture graphs; a family the
// campaign legalizer cannot build for the scheme is left out.
func goldenFixtures(t *testing.T, name string) []goldenFixture {
	t.Helper()
	var out []goldenFixture
	build, ok := conformanceFixtures[name]
	if !ok {
		t.Fatalf("registered scheme %q has no conformance fixture", name)
	}
	fx, err := build()
	if err != nil {
		t.Fatalf("%s conformance fixture: %v", name, err)
	}
	out = append(out, goldenFixture{"conf", fx.legal, fx.params})
	legal, params, err := campaign.BuildLegal(name, campaign.FamilyAxis{Name: "star"}, 8, 5)
	switch {
	case campaign.IsIncompatible(err):
	case err != nil:
		t.Fatalf("%s star fixture: %v", name, err)
	default:
		out = append(out, goldenFixture{"star", legal, params})
	}
	return out
}

// goldenSummaries runs one scheme variant over the rounds × multiplicity
// grid on one labeling and returns one line per cell, checking that
// Batched reproduces Sequential's Summary.
func goldenSummaries(t *testing.T, key string, s engine.Scheme, cfg *graph.Config, labels []core.Label) []string {
	t.Helper()
	var rows []string
	for _, rounds := range goldenRounds {
		sharded, err := engine.Shard(s, rounds)
		if err != nil {
			t.Fatalf("%s: Shard(t=%d): %v", key, rounds, err)
		}
		for _, m := range goldenMults {
			var ref engine.Summary
			for i, exec := range []engine.Executor{engine.NewSequential(), engine.NewBatched()} {
				sum, err := engine.Estimate(sharded, cfg, engine.WithLabels(labels),
					engine.WithTrials(6), engine.WithSeed(11), engine.WithMultiplicity(m),
					engine.WithExecutor(exec), engine.WithParallelism(1+i))
				if err != nil {
					t.Fatalf("%s t=%d m=%d: %v", key, rounds, m, err)
				}
				if i == 0 {
					ref = sum
				} else if sum != ref {
					t.Fatalf("%s t=%d m=%d: batched %+v != sequential %+v", key, rounds, m, sum, ref)
				}
			}
			rows = append(rows, fmt.Sprintf("t=%d m=%d %+v", rounds, m, ref))
		}
	}
	return rows
}

// computeRegistryGolden returns the digest table, one "key digest" line per
// (scheme, variant, fixture, labels) group in registry order, and the rows
// behind each key for diagnostics.
func computeRegistryGolden(t *testing.T) ([]string, map[string][]string) {
	t.Helper()
	var lines []string
	rows := make(map[string][]string)
	for _, e := range engine.Entries() {
		for _, fx := range goldenFixtures(t, e.Name) {
			for _, variant := range []string{campaign.VariantDet, campaign.VariantCompiled, campaign.VariantRand} {
				s, err := campaign.BuildVariant(e.Name, variant, fx.params)
				if campaign.IsIncompatible(err) {
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", e.Name, variant, err)
				}
				honest, err := s.Label(fx.cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s prover: %v", e.Name, variant, fx.name, err)
				}
				flipped := engine.BitFlippedLabels(prng.New(29), honest)
				for _, set := range []struct {
					name   string
					labels []core.Label
				}{{"honest", honest}, {"flipped", flipped}} {
					key := strings.Join([]string{e.Name, variant, fx.name, set.name}, "/")
					r := goldenSummaries(t, key, s, fx.cfg, set.labels)
					rows[key] = r
					lines = append(lines, fmt.Sprintf("%s %x", key, sha256.Sum256([]byte(strings.Join(r, "\n")))))
				}
			}
		}
	}
	return lines, rows
}

// TestRegistryGoldenRoundsMultiplicity compares every group's digest with
// the committed table; a mismatch prints the group's twelve Summaries.
func TestRegistryGoldenRoundsMultiplicity(t *testing.T) {
	got, rows := computeRegistryGolden(t)
	f, err := os.Open(filepath.FromSlash(registryGoldenFile))
	if err != nil {
		t.Fatalf("golden table: %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden table has %d groups, the registry builds %d", len(want), len(got))
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			key, _, _ := strings.Cut(got[i], " ")
			t.Errorf("group %d: got %q, want %q; its Summaries:\n%s", i, got[i], want[i], strings.Join(rows[key], "\n"))
		}
	}
}
