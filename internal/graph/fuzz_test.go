package graph

import (
	"runtime"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/prng"
)

// FuzzDecodeConfig hardens the configuration decoder against arbitrary
// bytes: decoded labels come from adversarial peers, so the decoder must
// either reject or produce a configuration that re-encodes consistently —
// and never panic.
func FuzzDecodeConfig(f *testing.F) {
	// Seed corpus: valid encodings plus structured garbage.
	rng := prng.New(1)
	for _, n := range []int{1, 3, 8} {
		c := NewConfig(RandomConnected(n, n, rng))
		c.AssignRandomIDs(rng)
		f.Add(c.Encode().Bytes())
	}
	// One representative of each scenario-family shape: lattice, wraparound,
	// hypercube, bottleneck, heavy-tailed, and dense random.
	grid, _ := Grid(3, 4)
	torus, _ := Torus(3, 3)
	cube, _ := Hypercube(3)
	barbell, _ := Barbell(3, 2)
	for _, g := range []*Graph{
		grid, torus, cube, barbell,
		PowerLawTree(9, prng.New(2)),
		GNPConnected(8, 0.3, prng.New(3)),
	} {
		c := NewConfig(g)
		c.AssignRandomIDs(rng)
		f.Add(c.Encode().Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(bitstring.FromBytes(data))
		if err != nil {
			return // rejection is fine
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid configuration: %v", err)
		}
		// Round trip must be stable from the decoded form onward.
		again, err := DecodeConfig(cfg.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.G.N() != cfg.G.N() || again.G.M() != cfg.G.M() {
			t.Fatal("re-decode changed the graph shape")
		}
	})
}

// FuzzDecodeState does the same for single states.
func FuzzDecodeState(f *testing.F) {
	var w bitstring.Writer
	(State{ID: 7, Parent: 1, Color: -3, Data: []byte("x")}).Encode(&w)
	f.Add(w.String().Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeState(bitstring.NewReader(bitstring.FromBytes(data)))
		if err != nil {
			return
		}
		var w bitstring.Writer
		s.Encode(&w)
		s2, err := DecodeState(bitstring.NewReader(w.String()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if s2.ID != s.ID || s2.Parent != s.Parent {
			t.Fatal("state round trip unstable")
		}
	})
}

// TestDecodersRejectHostileLengths: a length field is checked against the
// bits left before anything is sized from it. Each input claims far more
// items than it holds, and must be rejected while allocating under 64 KB;
// sized from the field, they asked for 16.8 MB, 4.3 GB, 0.5 MB and
// 25.2 MB. The first and last are the committed fuzz seeds
// hostile-data-length and hostile-node-count.
func TestDecodersRejectHostileLengths(t *testing.T) {
	// state returns a zero state's fields up to its weight count (208
	// bits), then the given tail.
	state := func(tail ...byte) []byte { return append(make([]byte, 26), tail...) }
	decodeState := func(b []byte) error {
		_, err := DecodeState(bitstring.NewReader(bitstring.FromBytes(b)))
		return err
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"state claiming 2^24 data bytes", func() error { return decodeState(state(0, 0, 0x01, 0, 0, 0)) }},
		{"state claiming 2^32-1 data bytes", func() error { return decodeState(state(0, 0, 0xff, 0xff, 0xff, 0xff)) }},
		{"state claiming 2^16-1 weights", func() error { return decodeState(state(0xff, 0xff)) }},
		{"config claiming 2^20 nodes", func() error {
			_, err := DecodeConfig(bitstring.FromBytes([]byte{0, 0x10, 0, 0}))
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("%s: allocated %d bytes before failing, want under 64 KB", tc.name, alloc)
		}
	}
}
