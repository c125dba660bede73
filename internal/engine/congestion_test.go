package engine_test

import (
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/uniform"
)

// The merging degradation of the congestion cap, pinned on the uniform
// and compiled uniform schemes through both halves of the per-trial
// contract: the capped scheme's label path and the nodes the executors
// prepare for it. Merged class messages are the core.CapMerge bundles of
// the unicast certificates, and the receiver checks every member.

func uniformStar(n int, payload []byte) *graph.Config {
	c := graph.NewConfig(graph.Star(n))
	for v := range c.States {
		c.States[v].Data = append([]byte(nil), payload...)
	}
	return c
}

// capCerts returns node v's certificates under cap m from the capped
// label path, after checking that v's prepared node writes the same.
func capCerts(t *testing.T, s engine.Scheme, m int, c *graph.Config, labels []core.Label, v int, seed uint64) []core.Cert {
	t.Helper()
	capped, nodes := engine.PrepareNodes(s, m, c, labels)
	checkCerts(t, capped, nodes, c, labels, v, 1, seed)
	return capped.Certs(core.ViewOf(c, v), labels[v], prng.New(seed).Fork(uint64(v)))
}

// capVote returns node v's vote on recv under cap m from the capped label
// path, after checking that v's prepared node votes the same.
func capVote(t *testing.T, s engine.Scheme, m int, c *graph.Config, labels []core.Label, v int, recv []core.Cert) bool {
	t.Helper()
	capped, nodes := engine.PrepareNodes(s, m, c, labels)
	checkDecide(t, capped, nodes, c, labels, v, [][]core.Cert{recv})
	return capped.Decide(core.ViewOf(c, v), labels[v], recv)
}

// TestMergedCertsClassUniform checks the port-class contract: under cap m all
// ports of one round-robin class carry byte-identical payloads, and the
// members recovered from a class message are exactly the unicast
// fingerprints (same coins, rng.Fork per port).
func TestMergedCertsClassUniform(t *testing.T) {
	s := engine.FromRPLS(uniform.NewRPLS())
	c := uniformStar(7, []byte("payload"))
	labels := make([]core.Label, c.G.N())
	view := core.ViewOf(c, 0) // hub: degree 6
	unicast := s.Certs(view, labels[0], prng.New(9).Fork(0))
	for m := 1; m <= view.Deg+1; m++ {
		capped := capCerts(t, s, m, c, labels, 0, 9)
		if len(capped) != view.Deg {
			t.Fatalf("m=%d: %d certs, want one per port (%d)", m, len(capped), view.Deg)
		}
		for i := range capped {
			k := core.PortClass(i, m)
			if !capped[i].Equal(capped[k]) {
				t.Fatalf("m=%d: port %d differs from class representative %d", m, i, k)
			}
			members, err := core.CapSplit(capped[k])
			if err != nil {
				t.Fatalf("m=%d class %d: %v", m, k, err)
			}
			if pos := (i - k) / m; !members[pos].Equal(unicast[i]) {
				t.Fatalf("m=%d: class member for port %d is not the unicast fingerprint", m, i)
			}
		}
	}
}

// TestMergedDecideCompleteAndSound: honest merged messages are always
// accepted (one-sided completeness at every m), and tampering with any
// class message — or its framing — is caught.
func TestMergedDecideCompleteAndSound(t *testing.T) {
	s := engine.FromRPLS(uniform.NewRPLS())
	c := uniformStar(7, []byte("payload"))
	labels := make([]core.Label, c.G.N())
	hub := core.ViewOf(c, 0)

	for m := 1; m <= 3; m++ {
		// The hub receives, from each leaf, the class message that leaf
		// minted for the class containing its single port back to the hub.
		received := make([]core.Cert, hub.Deg)
		for i := range received {
			received[i] = capCerts(t, s, m, c, labels, i+1, 3)[0]
		}
		if !capVote(t, s, m, c, labels, 0, received) {
			t.Fatalf("m=%d: honest class messages rejected", m)
		}

		// Tamper: replace one class message with a leaf's message over
		// different data.
		other := uniformStar(7, []byte("tampered"))
		tampered := append([]core.Cert(nil), received...)
		tampered[2] = capCerts(t, s, m, other, labels, 1, 3)[0]
		if capVote(t, s, m, c, labels, 0, tampered) {
			t.Fatalf("m=%d: mismatched member fingerprint accepted", m)
		}

		// Malformed framing: raw unicast certs are not class messages.
		raw := s.Certs(hub, labels[0], prng.New(3).Fork(9))
		if capVote(t, s, m, c, labels, 0, raw) {
			t.Fatalf("m=%d: unframed unicast certificates accepted", m)
		}

		// Trailing garbage.
		var w bitstring.Writer
		w.WriteString(received[0])
		w.WriteUint(1, 1)
		garbled := append([]core.Cert(nil), received...)
		garbled[0] = w.String()
		if capVote(t, s, m, c, labels, 0, garbled) {
			t.Fatalf("m=%d: trailing bits accepted", m)
		}
	}
}

// TestCompiledMergedDecide: the §3.1 compiler's merged label-replica
// fingerprints satisfy the same contract, so every compiled scheme
// degrades by merging too.
func TestCompiledMergedDecide(t *testing.T) {
	rp := core.Compile(uniform.NewPLS())
	s := engine.FromRPLS(rp)
	c := uniformStar(5, []byte("xy"))
	labels, err := rp.Label(c)
	if err != nil {
		t.Fatal(err)
	}
	wrongCfg := uniformStar(5, []byte("zz"))
	wrongLabels, err := rp.Label(wrongCfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 2; m++ {
		received := make([]core.Cert, c.G.Degree(0))
		for i := range received {
			received[i] = capCerts(t, s, m, c, labels, i+1, 4)[0]
		}
		if !capVote(t, s, m, c, labels, 0, received) {
			t.Fatalf("m=%d: compiled honest class messages rejected", m)
		}
		// A member fingerprinting a different (same-length) label must be
		// caught against the stored replica.
		tampered := append([]core.Cert(nil), received...)
		tampered[0] = capCerts(t, s, m, wrongCfg, wrongLabels, 1, 4)[0]
		if capVote(t, s, m, c, labels, 0, tampered) {
			t.Fatalf("m=%d: compiled fingerprint of a different label accepted", m)
		}
	}
}

// merges reports whether s merges class messages under a cap: on its
// widest node at m = 1, the capped certificates are the core.CapMerge
// bundle of the uncapped ones, where replication would repeat one of
// them on every port.
func merges(t *testing.T, s engine.Scheme, c *graph.Config, labels []core.Label) bool {
	t.Helper()
	v := 0
	for u := range c.G.N() {
		if c.G.Degree(u) > c.G.Degree(v) {
			v = u
		}
	}
	if c.G.Degree(v) < 2 {
		t.Fatalf("%s: no node of degree 2 or more", s.Name())
	}
	capped, _ := engine.PrepareNodes(s, 1, c, labels)
	view := core.ViewOf(c, v)
	got := capped.Certs(view, labels[v], prng.New(5).Fork(uint64(v)))
	want := core.CapMerge(s.Certs(view, labels[v], prng.New(5).Fork(uint64(v))), 1)
	for i := range want {
		if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

// TestCapDegradationRule pins the one degradation rule: a capped scheme
// merges exactly when it is one-sided and runs one round. Every
// registered randomized variant, Boost over uniform and over two-sided
// coloring, and the truncated uniform scheme merge if and only if they
// are one-sided; a t = 2 shard of a merging scheme replicates.
func TestCapDegradationRule(t *testing.T) {
	for _, tc := range nodeCases(t) {
		if tc.s.Deterministic() {
			continue // never wrapped: label broadcast meets every cap
		}
		if tc.cfg.G.M() == 0 {
			continue // no port to merge on
		}
		if got := merges(t, tc.s, tc.cfg, tc.labels); got != tc.s.OneSided() {
			t.Errorf("%s: merges = %v, one-sided = %v", tc.name, got, tc.s.OneSided())
		}
	}

	uni := conformanceFixtures["uniform"]
	fx, err := uni()
	if err != nil {
		t.Fatal(err)
	}
	s := engine.FromRPLS(uniform.NewRPLS())
	labels, err := s.Label(fx.legal)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.Shard(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if merges(t, sharded, fx.legal, labels) {
		t.Error("uniform rand sharded over 2 rounds merges; a sharded scheme must replicate")
	}
}
