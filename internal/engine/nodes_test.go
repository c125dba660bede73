package engine_test

import (
	"hash/crc32"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/campaign"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/coloring"
	"rpls/internal/schemes/mst"
	"rpls/internal/schemes/uniform"
)

// The per-trial contract's oracles: every node the executors prepare must
// answer each lane exactly as the scheme's label path answers that trial —
// the certificates slot for slot, the vote bit for bit — for every scheme
// shape, honest or hostile input.

// nodeCase is one scheme with one label assignment on one configuration.
type nodeCase struct {
	name   string
	s      engine.Scheme
	cfg    *graph.Config
	labels []core.Label
}

// nodeCases enumerates every registered scheme's det, rand and compiled
// variants on its conformance fixture — honest labels on the legal
// instance, and the same labels transplanted onto the illegal instance
// when the node counts match — plus Boost(uniform, 3), Boost over the
// two-sided coloring scheme, NewTruncatedRPLS(2), the compiled MST
// scheme under four malformed labels, and uniform rand and both Boosts on
// one node without ports.
func nodeCases(tb testing.TB) []nodeCase {
	tb.Helper()
	var out []nodeCase
	add := func(name string, s engine.Scheme, legal, illegal *graph.Config) []core.Label {
		labels, err := s.Label(legal)
		if err != nil {
			tb.Fatalf("%s prover: %v", name, err)
		}
		out = append(out, nodeCase{name, s, legal, labels})
		if illegal != nil && illegal.G.N() == legal.G.N() {
			out = append(out, nodeCase{name + "/illegal", s, illegal, labels})
		}
		return labels
	}
	fixture := func(name string) conformanceFixture {
		fx, err := conformanceFixtures[name]()
		if err != nil {
			tb.Fatalf("%s fixture: %v", name, err)
		}
		return fx
	}
	for _, e := range engine.Entries() {
		fx := fixture(e.Name)
		for _, variant := range []string{campaign.VariantDet, campaign.VariantRand, campaign.VariantCompiled} {
			s, err := campaign.BuildVariant(e.Name, variant, fx.params)
			if campaign.IsIncompatible(err) {
				continue
			}
			if err != nil {
				tb.Fatalf("%s/%s: %v", e.Name, variant, err)
			}
			add(e.Name+"/"+variant, s, fx.legal, fx.illegal)
		}
	}
	uni := fixture("uniform")
	add("boost3-uniform", engine.FromRPLS(core.Boost(uniform.NewRPLS(), 3)), uni.legal, uni.illegal)
	add("truncated", engine.FromRPLS(uniform.NewTruncatedRPLS(2)), uni.legal, uni.illegal)
	col := fixture("coloring")
	add("boost3-coloring", engine.FromRPLS(core.Boost(coloring.NewRPLS(col.params.M), 3)), col.legal, nil)
	mstFx := fixture("mst")
	labels := add("mst-malformed", engine.FromRPLS(mst.NewRPLS()), mstFx.legal, nil)
	bad := out[len(out)-1]
	bad.labels = append([]core.Label(nil), labels...)
	bad.labels[1] = truncatedLabel(bad.labels[1])
	bad.labels[2] = trailingBitLabel(bad.labels[2])
	bad.labels[3] = gammaLieLabel(bad.labels[3])
	bad.labels[4] = overlongReplicaLabel(bad.labels[4])
	out[len(out)-1] = bad
	// A node without ports: each of its lanes still gets one window, and
	// a two-sided Boost takes its majority over zero ports.
	lone := graph.NewConfig(graph.New(1))
	lone.States[0] = uni.legal.States[0]
	add("lone-uniform/rand", engine.FromRPLS(uniform.NewRPLS()), lone, nil)
	add("lone-boost3-uniform", engine.FromRPLS(core.Boost(uniform.NewRPLS(), 3)), lone, nil)
	add("lone-boost3-coloring", engine.FromRPLS(core.Boost(coloring.NewRPLS(col.params.M), 3)), lone, nil)
	return out
}

// truncatedLabel drops the last three bits of a label.
func truncatedLabel(l core.Label) core.Label { return l.Truncate(l.Len() - 3) }

// trailingBitLabel appends one 1 bit to a label.
func trailingBitLabel(l core.Label) core.Label {
	return bitstring.Concat(l, bitstring.FromBits([]byte{1}))
}

// gammaLieLabel rewrites the leading Elias-gamma length of a compiled
// label — its self sub-label's — to claim one bit more than follows, so
// every later field is read one bit out of place.
func gammaLieLabel(l core.Label) core.Label {
	r := bitstring.NewReader(l)
	n, err := r.ReadGamma()
	if err != nil {
		panic(err)
	}
	var w bitstring.Writer
	w.WriteGamma(n + 1)
	w.WriteString(l.Slice(l.Len()-r.Remaining(), l.Len()))
	return w.String()
}

// overlongReplicaLabel appends one bit to the first replica of a compiled
// label and lengthens its gamma prefix to match, so the label still splits
// but that replica cannot equal its sender's label.
func overlongReplicaLabel(l core.Label) core.Label {
	r := bitstring.NewReader(l)
	var w bitstring.Writer
	for sub := 0; sub < 2; sub++ {
		n, err := r.ReadGamma()
		if err != nil {
			panic(err)
		}
		s, err := r.ReadString(int(n))
		if err != nil {
			panic(err)
		}
		if sub == 1 {
			s = bitstring.Concat(s, bitstring.FromBits([]byte{1}))
		}
		w.WriteGamma(uint64(s.Len()))
		w.WriteString(s)
	}
	w.WriteString(l.Slice(l.Len()-r.Remaining(), l.Len()))
	return w.String()
}

// received is node v's honest receive vector in the trial at seed: port i
// carries what the neighbor on it sends back on the reverse port, empty
// when the neighbor's certificate vector is short.
func received(s engine.Scheme, c *graph.Config, labels []core.Label, v int, seed uint64) []core.Cert {
	recv := make([]core.Cert, c.G.Degree(v))
	for i, h := range c.G.AdjView(v) {
		if s.Deterministic() {
			recv[i] = labels[h.To] // a deterministic round sends the label
			continue
		}
		certs := s.Certs(core.ViewOf(c, h.To), labels[h.To], prng.New(seed).Fork(uint64(h.To)))
		if h.RevPort-1 < len(certs) {
			recv[i] = certs[h.RevPort-1]
		}
	}
	return recv
}

// checkCerts compares node v's certificates on the given lanes — lane l at
// seed+l — with the label path's, slot for slot, after pre-filling every
// slot with junk.
func checkCerts(t *testing.T, s engine.Scheme, nodes *engine.PreparedNodes, c *graph.Config, labels []core.Label, v, lanes int, seed uint64) {
	t.Helper()
	view := core.ViewOf(c, v)
	rngs := make([]*prng.Rand, lanes)
	out := make([][]core.Cert, lanes)
	for l := range out {
		rngs[l] = prng.New(seed + uint64(l)).Fork(uint64(v))
		out[l] = make([]core.Cert, view.Deg)
		for i := range out[l] {
			out[l][i] = bitstring.FromBytes([]byte{0xA5, 0x5A})
		}
	}
	nodes.Certs(v, rngs, out)
	for l := range out {
		var want []core.Cert
		if s.Deterministic() {
			want = make([]core.Cert, view.Deg)
			for i := range want {
				want[i] = labels[v]
			}
		} else {
			want = s.Certs(view, labels[v], prng.New(seed+uint64(l)).Fork(uint64(v)))
		}
		for i := range out[l] {
			var ref core.Cert
			if i < len(want) {
				ref = want[i]
			}
			if !out[l][i].Equal(ref) {
				t.Fatalf("node %d lane %d/%d port %d: node certificate differs from the label path's", v, l, lanes, i)
			}
		}
	}
}

// checkDecide compares node v's vote mask on recv with the label path's
// vote on every lane.
func checkDecide(t *testing.T, s engine.Scheme, nodes *engine.PreparedNodes, c *graph.Config, labels []core.Label, v int, recv [][]core.Cert) {
	t.Helper()
	got := nodes.Decide(v, recv)
	for l, r := range recv {
		want := s.Decide(core.ViewOf(c, v), labels[v], r)
		if bit := got&(1<<uint(l)) != 0; bit != want {
			t.Fatalf("node %d lane %d/%d: node votes %v, label path %v", v, l, len(recv), bit, want)
		}
	}
	if got&^core.LaneMask(len(recv)) != 0 {
		t.Fatalf("node %d: vote mask %#x sets bits past %d lanes", v, got, len(recv))
	}
}

// TestNodesMatchLabelPath is the registry-wide oracle of the per-trial
// contract. Every case's nodes, prepared as the executors prepare them,
// are compared with the label path at 1, 3 and 64 lanes, uncapped and
// under the multiplicity caps 1 and 2, on the honest exchange and with
// one lane's first certificate truncated. At 64 merged lanes the member
// windows overflow one 64-window call of the inner node.
func TestNodesMatchLabelPath(t *testing.T) {
	const seed = 1000
	for _, tc := range nodeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range []int{0, 1, 2} {
				if m > 0 && tc.s.Deterministic() {
					continue // never capped: label broadcast meets every cap
				}
				capped, nodes := engine.PrepareNodes(tc.s, m, tc.cfg, tc.labels)
				for _, lanes := range []int{1, 3, 64} {
					for v := 0; v < tc.cfg.G.N(); v++ {
						checkCerts(t, capped, nodes, tc.cfg, tc.labels, v, lanes, seed)
						recv := make([][]core.Cert, lanes)
						for l := range recv {
							recv[l] = received(capped, tc.cfg, tc.labels, v, seed+uint64(l))
						}
						checkDecide(t, capped, nodes, tc.cfg, tc.labels, v, recv)
						if len(recv[lanes/2]) > 0 {
							cut := recv[lanes/2][0]
							recv[lanes/2][0] = cut.Truncate(cut.Len() / 2)
							checkDecide(t, capped, nodes, tc.cfg, tc.labels, v, recv)
						}
					}
				}
			}
		})
	}
}

// FuzzDecide crosses every case of nodeCases with hostile input: the
// fuzzer picks the case by name (any other string hashes to a case), one
// of its nodes, a cap byte, the bits of that node's label, and the bits
// of the certificate arriving on its first port. The cap byte m selects
// the multiplicity cap m % 3 ∈ {0, 1, 2}, and (m / 3) % 2 = 1 shards the
// scheme over t = 3 rounds. A negative bit count keeps the honest label
// or certificate. The oracle: neither path panics, and the node's
// certificates and vote equal the label path's, both at one lane and at
// lane 1 of 3.
func FuzzDecide(f *testing.F) {
	cases := nodeCases(f)
	index := make(map[string]int, len(cases))
	for i, tc := range cases {
		index[tc.name] = i
	}
	bitsOf := func(data []byte, n int) bitstring.String {
		if n > 8*len(data) {
			n = 8 * len(data)
		}
		return bitstring.FromBytes(data).Truncate(n)
	}
	f.Add("uniform/rand", uint8(0), uint8(0), []byte{}, -1, []byte{}, -1)
	f.Add("mst/compiled", uint8(1), uint8(4), []byte{}, -1, []byte{}, -1) // m = 1, t = 3
	f.Fuzz(func(t *testing.T, name string, node, m uint8, label []byte, labelBits int, cert []byte, certBits int) {
		i, ok := index[name]
		if !ok {
			i = int(crc32.ChecksumIEEE([]byte(name)) % uint32(len(cases)))
		}
		tc := cases[i]
		v := int(node) % tc.cfg.G.N()
		labels := tc.labels
		if labelBits >= 0 {
			labels = append([]core.Label(nil), labels...)
			labels[v] = bitsOf(label, labelBits)
		}
		s := tc.s
		if (m/3)%2 == 1 {
			var err error
			if s, err = engine.Shard(s, 3); err != nil {
				t.Fatal(err)
			}
		}
		const seed = 21
		capped, nodes := engine.PrepareNodes(s, int(m%3), tc.cfg, labels)
		checkCerts(t, capped, nodes, tc.cfg, labels, v, 1, seed)
		checkCerts(t, capped, nodes, tc.cfg, labels, v, 3, seed-1)
		recv := received(capped, tc.cfg, labels, v, seed)
		if certBits >= 0 && len(recv) > 0 {
			recv[0] = bitsOf(cert, certBits)
		}
		checkDecide(t, capped, nodes, tc.cfg, labels, v, [][]core.Cert{recv})
		checkDecide(t, capped, nodes, tc.cfg, labels, v, [][]core.Cert{
			received(capped, tc.cfg, labels, v, seed-1), recv, received(capped, tc.cfg, labels, v, seed+1),
		})
	})
}
