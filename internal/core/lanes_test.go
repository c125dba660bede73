package core_test

import (
	"bytes"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/experiments"
	"rpls/internal/field"
	"rpls/internal/graph"
	"rpls/internal/prng"
	"rpls/internal/schemes/mst"
	"rpls/internal/schemes/uniform"
)

// laneSchemes enumerates the core.Preparer implementations under test
// together with a config on which their labels are valid. The compiled
// scheme exercises the replica-splitting path — over MST, whose inner
// verifier carries the claim, also under malformed labels — uniform the
// shared-polynomial path, the truncated variant a fixed tiny field
// (p = 2), and Boost both a prepared inner node (uniform) and a LabelNode
// inner (coinRPLS, which does not implement Preparer).
func laneSchemes(t *testing.T) []struct {
	name   string
	scheme core.RPLS
	cfg    *graph.Config
	labels []core.Label
} {
	t.Helper()
	legal := func(n int) *graph.Config {
		g := graph.RandomTree(n, prng.New(77))
		for i := 0; i < n/2; i++ {
			u, v := int(prng.New(uint64(i)).Uint64n(uint64(n))), int(prng.New(uint64(i)+99).Uint64n(uint64(n)))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		c := graph.NewConfig(g)
		for v := range c.States {
			c.States[v].Data = []byte("lane-test-payload")
		}
		return c
	}
	broken := legal(12)
	broken.States[5].Data = []byte("lane-test-payloaX")

	var out []struct {
		name   string
		scheme core.RPLS
		cfg    *graph.Config
		labels []core.Label
	}
	add := func(name string, s core.RPLS, c *graph.Config, mustLabel bool) {
		labels, err := s.Label(c)
		if err != nil {
			if mustLabel {
				t.Fatalf("%s: Label: %v", name, err)
			}
			labels = make([]core.Label, c.G.N())
		}
		out = append(out, struct {
			name   string
			scheme core.RPLS
			cfg    *graph.Config
			labels []core.Label
		}{name, s, c, labels})
	}
	add("uniform", uniform.NewRPLS(), legal(14), true)
	add("uniform-illegal", uniform.NewRPLS(), broken, false)
	add("truncated", uniform.NewTruncatedRPLS(2), legal(10), true)
	add("compiled", core.Compile(uniform.NewPLS()), legal(14), true)
	// Labels transplanted from the legal twin: every replica is faithful,
	// so only the inner verifier at the deviant node rejects.
	add("compiled-illegal", core.Compile(uniform.NewPLS()), legal(12), true)
	out[len(out)-1].cfg = broken
	mstCfg, err := experiments.BuildMSTConfig(14, 3)
	if err != nil {
		t.Fatal(err)
	}
	add("compiled-mst", mst.NewRPLS(), mstCfg, true)
	malformed := out[len(out)-1]
	malformed.name = "compiled-mst-malformed"
	malformed.labels = append([]core.Label(nil), malformed.labels...)
	malformed.labels[1] = truncatedLabel(malformed.labels[1])
	malformed.labels[2] = trailingBitLabel(malformed.labels[2])
	malformed.labels[3] = gammaLieLabel(malformed.labels[3])
	malformed.labels[4] = overlongReplicaLabel(malformed.labels[4])
	out = append(out, malformed)
	add("boost3", core.Boost(uniform.NewRPLS(), 3), legal(12), true)
	add("boost3-illegal", core.Boost(uniform.NewRPLS(), 3), broken, false)
	add("boost5-two-sided", core.Boost(coinRPLS{bits: 2}, 5), legal(8), true)
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
	rest, err := r.ReadString(r.Remaining())
	if err != nil {
		panic(err)
	}
	var w bitstring.Writer
	w.WriteGamma(n + 1)
	w.WriteString(rest)
	return w.String()
}

// overlongReplicaLabel appends one bit to the first replica of a
// compiled label and lengthens its gamma prefix to match, so the label
// still splits but that replica cannot equal its sender's label.
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
	rest, err := r.ReadString(r.Remaining())
	if err != nil {
		panic(err)
	}
	w.WriteString(rest)
	return w.String()
}

// certsEqual reports whether two certificate vectors are bit-identical.
func certsEqual(a, b []core.Cert) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestLanesMatchPerLane pins the core.Prepared contract for core's own
// node implementations: Certs slot (l, i) of the prepared node is
// bit-identical to the label path's Certs with rngs[l] (empty past the
// short tail), and Decide bit l equals the label path's Decide on lane l's
// certificates — both on the honest exchange and with one lane's
// certificate corrupted. The registry-wide counterpart, over every
// registered scheme and the engine's wrappers, is the engine's
// TestNodesMatchLabelPath.
func TestLanesMatchPerLane(t *testing.T) {
	for _, tc := range laneSchemes(t) {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := tc.scheme.(core.Preparer)
			if !ok {
				t.Fatalf("%s does not implement Preparer", tc.scheme.Name())
			}
			n := tc.cfg.G.N()
			nodes := make([]core.Prepared, n)
			for v := range nodes {
				nodes[v] = p.Prepare(core.ViewOf(tc.cfg, v), tc.labels[v])
			}
			for _, lanes := range []int{1, 3, 64} {
				// Per-lane reference streams and batched streams: trial l at
				// node v forks prng.New(seed+l).Fork(v), as the executors do.
				want := make([][][]core.Cert, lanes) // lane -> node -> certs
				for l := 0; l < lanes; l++ {
					want[l] = make([][]core.Cert, n)
					for v := 0; v < n; v++ {
						rng := prng.New(uint64(1000 + l)).Fork(uint64(v))
						want[l][v] = tc.scheme.Certs(core.ViewOf(tc.cfg, v), tc.labels[v], rng)
					}
				}
				for v := 0; v < n; v++ {
					view := core.ViewOf(tc.cfg, v)
					rngs := make([]*prng.Rand, lanes)
					out := make([][]core.Cert, lanes)
					for l := 0; l < lanes; l++ {
						rngs[l] = prng.New(uint64(1000 + l)).Fork(uint64(v))
						out[l] = make([]core.Cert, view.Deg)
						for i := range out[l] {
							// Pre-fill with junk: every slot must be overwritten.
							out[l][i] = core.Cert(bitstring.FromBytes([]byte{0xA5, 0x5A}))
						}
					}
					nodes[v].Certs(rngs, out)
					for l := 0; l < lanes; l++ {
						for i := 0; i < view.Deg; i++ {
							var ref core.Cert
							if i < len(want[l][v]) {
								ref = want[l][v][i]
							}
							if !out[l][i].Equal(ref) {
								t.Fatalf("lanes=%d node %d lane %d port %d: node Certs != Certs", lanes, v, l, i)
							}
						}
					}
				}
				// Exchange honestly, then decide — node vs label path — and
				// once more with a corrupted lane to hit the rejection paths.
				for _, corrupt := range []bool{false, true} {
					for v := 0; v < n; v++ {
						view := core.ViewOf(tc.cfg, v)
						recv := make([][]core.Cert, lanes)
						for l := 0; l < lanes; l++ {
							recv[l] = make([]core.Cert, view.Deg)
							for i, h := range tc.cfg.G.AdjView(v) {
								nbrCerts := want[l][h.To]
								if h.RevPort-1 < len(nbrCerts) {
									recv[l][i] = nbrCerts[h.RevPort-1]
								}
							}
							if corrupt && l == lanes/2 && view.Deg > 0 {
								recv[l][0] = recv[l][0].Truncate(recv[l][0].Len() / 2)
							}
						}
						got := nodes[v].Decide(recv)
						for l := 0; l < lanes; l++ {
							ref := tc.scheme.Decide(view, tc.labels[v], recv[l])
							if ref != (got&(1<<uint(l)) != 0) {
								t.Fatalf("corrupt=%v lanes=%d node %d lane %d: node Decide bit %v, Decide %v",
									corrupt, lanes, v, l, got&(1<<uint(l)) != 0, ref)
							}
						}
					}
				}
			}
		})
	}
}

// TestLaneMask checks the boundary lane counts.
func TestLaneMask(t *testing.T) {
	for _, tc := range []struct {
		lanes int
		want  uint64
	}{{0, 0}, {1, 1}, {2, 3}, {63, 1<<63 - 1}, {64, ^uint64(0)}} {
		if got := core.LaneMask(tc.lanes); got != tc.want {
			t.Errorf("LaneMask(%d) = %#x, want %#x", tc.lanes, got, tc.want)
		}
	}
}

// frameFingerprint is the label path's framing of gamma(n) ‖ x ‖ y over
// GF(p), FingerprintCert's wire format for a chosen point and value.
func frameFingerprint(n int, p, x, y uint64) bitstring.String {
	var w bitstring.Writer
	w.WriteGamma(uint64(n))
	field.Fingerprint{X: x, Y: y, P: p}.Encode(&w)
	return w.String()
}

// FuzzFingerprintCert checks the prepared nodes' word codec
// (core.FingerprintLayout) against the label path's sequential one on
// layouts the registry's small fixtures never reach, up to two full
// words. The fuzzer picks n ≤ 2³⁰; a prime p, PrimeForLength(n) when pRaw
// is 0 and NextPrime(pRaw mod (2³⁴+1)) otherwise; a point x and value y;
// and raw certificate bits (all of raw when rawBits is out of range). The
// oracle: NewFingerprintLayout refuses a layout past 128 bits; otherwise
// the word encoder's certificate for (x mod p, y mod p) equals the
// Writer-framed one, bytes and padding included, and on the raw bits the
// word decoder's verdict and (x, y) equal ReadFingerprintCert's.
func FuzzFingerprintCert(f *testing.F) {
	add := func(n int, pRaw, x, y uint64, raw bitstring.String) {
		f.Add(uint32(n), pRaw, x, y, raw.Bytes(), raw.Len())
	}
	honest := func(n int, pRaw, x, y uint64) bitstring.String {
		p := field.PrimeForLength(n)
		if pRaw != 0 {
			p = field.NextPrime(pRaw)
		}
		return frameFingerprint(n, p, x, y)
	}
	one := bitstring.FromBits([]byte{1})
	// L = G + 2w is odd (G is), so the one-word edge L = 64 is a 63-bit
	// layout (n = 30000: G = 29, w = 17) with a trailing bit, and a 65-bit
	// layout (n = 32767: G = 31, w = 17) cut to 64 bits.
	l63 := honest(30000, 0, 5, 7)
	add(30000, 0, 5, 7, bitstring.Concat(l63, one))
	l65 := honest(32767, 0, 1<<16, 3)
	add(32767, 0, 1<<16, 3, l65)
	add(32767, 0, 1<<16, 3, l65.Truncate(64))
	add(256, 1<<31, 1<<31, 12345, honest(256, 1<<31, 1<<31, 12345)) // 2w = 64
	add(256, 1<<32, 1<<32, 1, honest(256, 1<<32, 1<<32, 1))         // 2w = 66
	add(1<<30, 0, 3<<30, 1<<31, honest(1<<30, 0, 3<<30, 1<<31))     // n = 2³⁰, L = 125
	add(1<<30, 1<<34, 0, 0, bitstring.String{})                     // L = 131: refused
	u := honest(256, 0, 700, 9)                                     // uniform-batched's 37-bit layout
	add(256, 0, 700, 9, u.Truncate(u.Len()-1))                      // truncated
	add(256, 0, 700, 9, bitstring.Concat(u, one))                   // trailing bit
	add(256, 0, 700, 9, honest(257, 0, 700, 9))                     // gamma lie, same G
	p := field.PrimeForLength(256)
	add(256, 0, 0, 0, frameFingerprint(256, p, p, 9)) // x = p
	add(256, 0, 0, 0, frameFingerprint(256, p, 9, p)) // y = p
	f.Fuzz(func(t *testing.T, n uint32, pRaw, x, y uint64, raw []byte, rawBits int) {
		bits := int(n % (1<<30 + 1))
		p := field.PrimeForLength(bits)
		if pRaw != 0 {
			p = field.NextPrime(pRaw % (1<<34 + 1))
		}
		if bitstring.GammaBits(uint64(bits))+2*bitstring.UintBits(p-1) > 128 {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFingerprintLayout(%d, %d) accepted a layout past two words", bits, p)
				}
			}()
			core.NewFingerprintLayout(bits, p)
			return
		}
		lay := core.NewFingerprintLayout(bits, p)
		x, y = x%p, y%p
		want := frameFingerprint(bits, p, x, y)
		got := lay.Encode(x, y, make([]byte, (lay.Bits()+7)/8))
		if lay.Bits() != want.Len() || !got.Equal(want) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d p=%d: word encoder wrote %v (%d-bit layout), Writer %v", bits, p, got, lay.Bits(), want)
		}
		if rawBits < 0 || rawBits > 8*len(raw) {
			rawBits = 8 * len(raw)
		}
		for _, cert := range []core.Cert{want, bitstring.FromBytes(raw).Truncate(rawBits)} {
			gx, gy, ok := lay.Decode(cert)
			fp, wantOK := core.ReadFingerprintCert(cert, bits, p)
			if ok != wantOK || ok && (gx != fp.X || gy != fp.Y) {
				t.Fatalf("n=%d p=%d cert %v: word decoder (%d, %d, %v), Reader (%d, %d, %v)", bits, p, cert, gx, gy, ok, fp.X, fp.Y, wantOK)
			}
		}
	})
}
