package engine

import (
	"fmt"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/obs"
	"rpls/internal/prng"
)

// Soundness: fan adversarial label assignments against an illegal
// configuration through the trial-parallel estimator and report the
// worst-case acceptance each adversary family achieved. The three families
// are the standard ones of the conformance suite: honest labels
// transplanted from a legal twin, uniformly random labels, and honest
// labels with a single flipped bit.

// Adversary names reported by Soundness.
const (
	AdversaryTransplant = "transplant"
	AdversaryRandom     = "random"
	AdversaryBitFlip    = "bitflip"
)

// AdversaryResult reports how one adversary family fared: the number of
// label assignments it tried and the estimate of the worst (highest
// acceptance) assignment among them.
type AdversaryResult struct {
	Adversary   string
	Assignments int
	WorstIndex  int     // index of the worst assignment within the family
	Worst       Summary // acceptance estimate of that assignment
}

// Soundness measures a scheme's soundness on an illegal configuration.
// legal, when non-nil, is a legal twin whose honest labels feed the
// transplant and bit-flip adversaries (transplant additionally requires
// matching node counts); the random adversary always runs. Per assignment,
// acceptance is estimated with the trial-parallel estimator under the
// caller's WithTrials / WithSeed / WithParallelism / WithExecutor /
// WithMaxSE options; WithAssignments sets the number of random and
// bit-flip assignments. WithStopOnReject is ignored — a soundness run
// wants the acceptance rate, not the first rejection. Results are listed
// in transplant, random, bitflip order.
func Soundness(s Scheme, legal, illegal *graph.Config, opts ...Option) ([]AdversaryResult, error) {
	o, err := buildValidated(s, opts)
	if err != nil {
		return nil, err
	}
	o.stopOnReject = false
	s = withCap(s, o.multiplicity)
	n := illegal.G.N()
	obsSoundnessRuns.Inc()

	var honest []core.Label
	if legal != nil {
		var err error
		honest, err = s.Label(legal)
		if err != nil {
			return nil, fmt.Errorf("prover %s on legal twin: %w", s.Name(), err)
		}
	}

	var out []AdversaryResult
	if honest != nil && legal.G.N() == n {
		out = append(out, AdversaryResult{
			Adversary:   AdversaryTransplant,
			Assignments: 1,
			Worst:       o.estimateLabels(s, illegal, honest),
		})
	}

	maxBits := 32
	if b := core.MaxBits(honest); b > 0 {
		maxBits = b
	}
	rng := prng.New(o.seed).Fork(0xadee5a27)
	out = append(out, o.worstAssignment(s, illegal, AdversaryRandom, func() []core.Label {
		return RandomLabels(rng, n, maxBits)
	}))

	if honest != nil && len(honest) == n {
		out = append(out, o.worstAssignment(s, illegal, AdversaryBitFlip, func() []core.Label {
			return BitFlippedLabels(rng, honest)
		}))
	}
	return out, nil
}

// worstAssignment estimates acceptance for o.assignments draws of the
// adversary and keeps the one with the highest acceptance rate.
func (o *options) worstAssignment(s Scheme, illegal *graph.Config, name string, draw func() []core.Label) AdversaryResult {
	sp := obs.Begin("engine.soundness." + name)
	obsSoundnessAssignments.Add(uint64(o.assignments))
	r := AdversaryResult{Adversary: name, Assignments: o.assignments}
	for a := 0; a < o.assignments; a++ {
		sum := o.estimateLabels(s, illegal, draw())
		if a == 0 || sum.Acceptance > r.Worst.Acceptance {
			r.WorstIndex, r.Worst = a, sum
		}
	}
	sp.A = int64(o.assignments)
	obs.End(sp)
	return r
}

// RandomLabels draws n labels of up to maxBits uniform bits each — the
// unstructured adversary every scheme must defeat. Label i's length is
// drawn first, then its bits in order, one rng.Bit each; the bits are
// packed as they are drawn, 64 to a word, into one buffer per label.
func RandomLabels(rng *prng.Rand, n, maxBits int) []core.Label {
	out := make([]core.Label, n)
	var w bitstring.Writer
	for i := range out {
		left := rng.Intn(maxBits + 1)
		w.ResetInto(make([]byte, 0, (left+7)/8))
		for left > 0 {
			k := min(left, 64)
			var word uint64
			for j := 0; j < k; j++ {
				word = word<<1 | uint64(rng.Bit())
			}
			w.WriteUint(word, k)
			left -= k
		}
		out[i] = w.TakeString()
	}
	return out
}

// BitFlippedLabels copies labels and flips one uniformly random bit of one
// uniformly random node's label — the minimal-perturbation adversary. A
// node with an empty label gains a single 1 bit instead.
func BitFlippedLabels(rng *prng.Rand, labels []core.Label) []core.Label {
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
	out[v] = l.FlipBit(rng.Intn(l.Len()))
	return out
}
