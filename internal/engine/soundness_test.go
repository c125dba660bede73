package engine_test

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/engine"
	"rpls/internal/prng"
	"rpls/internal/schemes/mst"
	"rpls/internal/schemes/uniform"
)

// perBitRandomLabels is the adversary's per-bit construction, kept as the
// reference RandomLabels must reproduce: one []byte per label, one byte
// per drawn bit, packed by FromBits.
func perBitRandomLabels(rng *prng.Rand, n, maxBits int) []core.Label {
	out := make([]core.Label, n)
	for i := range out {
		bits := make([]byte, rng.Intn(maxBits+1))
		for j := range bits {
			bits[j] = rng.Bit()
		}
		out[i] = bitstring.FromBits(bits)
	}
	return out
}

// perBitFlippedLabels is BitFlippedLabels' per-bit reference.
func perBitFlippedLabels(rng *prng.Rand, labels []core.Label) []core.Label {
	out := append([]core.Label(nil), labels...)
	if len(out) == 0 {
		return out
	}
	v := rng.Intn(len(out))
	l := out[v]
	if l.Len() == 0 {
		out[v] = bitstring.FromBits([]byte{1})
		return out
	}
	pos := rng.Intn(l.Len())
	bits := make([]byte, l.Len())
	for i := range bits {
		bits[i] = l.Bit(i)
	}
	bits[pos] ^= 1
	out[v] = bitstring.FromBits(bits)
	return out
}

// sameLabels reports whether two label sets are bit-identical, padding
// included.
func sameLabels(a, b []core.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Len() != b[i].Len() || !bytes.Equal(a[i].Bytes(), b[i].Bytes()) {
			return false
		}
	}
	return true
}

// TestAdversaryLabelsMatchPerBitReference: RandomLabels and
// BitFlippedLabels pack their bits as they draw them, and must give the
// per-bit construction's labels bit for bit, consuming the same draws
// (the streams agree afterwards), for lengths around every word boundary.
func TestAdversaryLabelsMatchPerBitReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, maxBits := range []int{0, 1, 7, 63, 64, 65, 1000} {
			got, ref := prng.New(seed), prng.New(seed)
			for a := 0; a < 4; a++ {
				labels, want := engine.RandomLabels(got, 16, maxBits), perBitRandomLabels(ref, 16, maxBits)
				if !sameLabels(labels, want) {
					t.Fatalf("seed %d, maxBits %d, set %d: RandomLabels differs from the per-bit reference", seed, maxBits, a)
				}
				// Flip within the set just drawn: it holds empty labels at
				// small maxBits, which gain a 1 bit instead.
				if !sameLabels(engine.BitFlippedLabels(got, labels), perBitFlippedLabels(ref, want)) {
					t.Fatalf("seed %d, maxBits %d, set %d: BitFlippedLabels differs from the per-bit reference", seed, maxBits, a)
				}
			}
			if got.Uint64() != ref.Uint64() {
				t.Fatalf("seed %d, maxBits %d: the streams diverged", seed, maxBits)
			}
		}
	}
}

// prepareCounter is a scheme with its own nodes that counts its Prepare
// calls.
type prepareCounter struct {
	core.Preparer
	calls atomic.Int64
}

func (p *prepareCounter) Prepare(view core.View, own core.Label) core.Prepared {
	p.calls.Add(1)
	return p.Preparer.Prepare(view, own)
}

// TestSoundnessMatchesDecomposedEstimates: Soundness equals the Estimate
// calls it stands for — the transplant, then each random and each
// bit-flip assignment drawn from its one stream — although it prepares
// the honest labels once and each bit-flip estimate prepares only its
// flipped node again. Counted through the scheme's Prepare, the transplant
// and bit-flip families take n + assignments calls, not the
// (1 + assignments)·n of preparing every estimate afresh; the random
// family prepares all n nodes per assignment.
func TestSoundnessMatchesDecomposedEstimates(t *testing.T) {
	const seed, trials, assignments = 7, 24, 3
	fixture := func(name string) conformanceFixture {
		fx, err := conformanceFixtures[name]()
		if err != nil {
			t.Fatalf("%s fixture: %v", name, err)
		}
		return fx
	}
	preparer := func(r core.RPLS) *prepareCounter { return &prepareCounter{Preparer: r.(core.Preparer)} }
	mstFx, uniFx := fixture("mst"), fixture("uniform")
	for _, tc := range []struct {
		name  string
		fx    conformanceFixture
		count *prepareCounter
		boost int
		m     int
	}{
		{"mst/compiled", mstFx, preparer(mst.NewRPLS()), 1, 0},
		{"uniform/rand", uniFx, preparer(uniform.NewRPLS()), 1, 0},
		{"uniform/rand/m=1", uniFx, preparer(uniform.NewRPLS()), 1, 1},
		{"boost2-uniform", uniFx, preparer(uniform.NewRPLS()), 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := engine.FromRPLS(core.Boost(tc.count, tc.boost))
			legal, illegal := tc.fx.legal, tc.fx.illegal
			n := illegal.G.N()
			if legal.G.N() != n {
				t.Fatalf("fixture twins have %d and %d nodes", legal.G.N(), n)
			}
			opts := []engine.Option{engine.WithTrials(trials), engine.WithSeed(seed), engine.WithMultiplicity(tc.m)}
			got, err := engine.Soundness(s, legal, illegal, append(opts, engine.WithAssignments(assignments))...)
			if err != nil {
				t.Fatal(err)
			}
			if calls, want := tc.count.calls.Load(), int64(n+assignments+assignments*n); calls != want {
				t.Errorf("Soundness made %d Prepare calls, want %d: n = %d for the honest labels, one per bit-flip assignment (%d), and n per random assignment",
					calls, want, n, assignments)
			}

			honest, err := s.Label(legal)
			if err != nil {
				t.Fatal(err)
			}
			estimate := func(labels []core.Label) engine.Summary {
				sum, err := engine.Estimate(s, illegal, append(opts, engine.WithLabels(labels))...)
				if err != nil {
					t.Fatal(err)
				}
				return sum
			}
			worst := func(name string, draw func() []core.Label) engine.AdversaryResult {
				r := engine.AdversaryResult{Adversary: name, Assignments: assignments}
				for a := 0; a < assignments; a++ {
					if sum := estimate(draw()); a == 0 || sum.Acceptance > r.Worst.Acceptance {
						r.WorstIndex, r.Worst = a, sum
					}
				}
				return r
			}
			maxBits := 32
			if b := core.MaxBits(honest); b > 0 {
				maxBits = b
			}
			rng := prng.New(seed).Fork(0xadee5a27)
			want := []engine.AdversaryResult{
				{Adversary: engine.AdversaryTransplant, Assignments: 1, Worst: estimate(honest)},
				worst(engine.AdversaryRandom, func() []core.Label { return engine.RandomLabels(rng, n, maxBits) }),
				worst(engine.AdversaryBitFlip, func() []core.Label { return engine.BitFlippedLabels(rng, honest) }),
			}
			if !slices.Equal(got, want) {
				t.Errorf("Soundness %+v\ndiffers from its decomposition %+v", got, want)
			}
		})
	}
}
