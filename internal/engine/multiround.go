package engine

import (
	"fmt"

	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// Multi-round (t-PLS) verification. A MultiRound scheme spreads its
// per-port strings over Rounds() synchronous rounds; the round kernel
// (Sequential.Round, whose classic round is the t = 1 case) runs the
// rounds in lockstep, meters every round's messages into the same Stats
// counters (MaxPortBits is therefore the exact bits-per-round of the
// tradeoff), and hands Decide the per-port concatenation, in round order,
// of everything that arrived on that port. Batched has no t-round lanes
// and runs multi-round schemes on its embedded kernel.
//
// The coin contract keeps the rounds stateless and the execution
// deterministic: in every round of trial seed, node v's rng is a fresh
// prng.New(seed).Fork(v) — the same stream each round — so a scheme
// re-derives its base certificates identically per round and slices out
// the round's shard. Both executors produce votes and Stats identical to the
// goroutine-per-node reference for the same seed at any parallelism level,
// exactly as in the one-round case; the golden-bits test at t ∈ {1, 2, 4}
// enforces it.

// MultiRound is the optional t-round extension of Scheme. A Scheme that
// does not implement it runs the classic single round.
type MultiRound interface {
	Scheme
	// Rounds is the number of verification rounds t >= 1.
	Rounds() int
	// RoundCerts generates the round-r string per port (index i = port
	// i+1). The executor recreates the rng identically for every round of
	// one trial.
	RoundCerts(round int, view core.View, own core.Label, rng *prng.Rand) []core.Cert
}

// Rounds reports the number of verification rounds a scheme runs: t for a
// MultiRound scheme, 1 otherwise.
func Rounds(s Scheme) int {
	if mr, ok := s.(MultiRound); ok {
		if t := mr.Rounds(); t > 1 {
			return t
		}
	}
	return 1
}

// IsCoinFree reports whether every round of the scheme is coin-free, so a
// single trial measures it exactly: deterministic schemes, and multi-round
// schemes that declare themselves CoinFree (a sharded deterministic
// scheme). Drivers use it to collapse the trial budget the way they already
// do for Deterministic schemes.
func IsCoinFree(s Scheme) bool {
	if s.Deterministic() {
		return true
	}
	if a, ok := s.(multiScheme); ok {
		if cf, ok := a.s.(core.CoinFree); ok {
			return cf.CoinFree()
		}
	}
	return false
}

// multiScheme adapts a core.MultiRPLS onto the unified Scheme plus the
// MultiRound hook. It reports Deterministic() == false so executors drive
// the RoundCerts path — even for a sharded deterministic base, whose
// "certificates" are label shards rather than whole labels.
type multiScheme struct{ s core.MultiRPLS }

// FromMultiRPLS adapts a t-round scheme onto the unified round abstraction.
func FromMultiRPLS(s core.MultiRPLS) Scheme { return multiScheme{s} }

func (a multiScheme) Name() string                                { return a.s.Name() }
func (a multiScheme) Label(c *graph.Config) ([]core.Label, error) { return a.s.Label(c) }
func (a multiScheme) Deterministic() bool                         { return false }
func (a multiScheme) OneSided() bool                              { return a.s.OneSided() }
func (a multiScheme) Rounds() int                                 { return a.s.Rounds() }

// Certs is the single-round entry: a t-round scheme run by a single-round
// driver sends its round-0 strings (for t == 1 that is the whole scheme).
func (a multiScheme) Certs(view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	return a.s.RoundCerts(0, view, own, rng)
}

func (a multiScheme) RoundCerts(round int, view core.View, own core.Label, rng *prng.Rand) []core.Cert {
	return a.s.RoundCerts(round, view, own, rng)
}

func (a multiScheme) Decide(view core.View, own core.Label, received []core.Cert) bool {
	return a.s.Decide(view, own, received)
}

// Shard wraps a registered scheme into its t-round sharded form (the
// constructive direction of the κ/t tradeoff): per port and per round it
// sends ⌈κ/t⌉ bits, and the receiver's reassembly feeds the base decision.
// t == 1 returns the scheme unchanged, so the rounds axis degenerates to
// the classic engine exactly; t < 1 is rejected. Only schemes adapted from
// the core model types (FromPLS / FromRPLS) can be sharded — everything in
// the registry is.
func Shard(s Scheme, t int) (Scheme, error) {
	if t == 1 {
		return s, nil
	}
	if t < 1 {
		return nil, fmt.Errorf("engine: shard %s into %d rounds: need t >= 1", s.Name(), t)
	}
	if pls, ok := AsPLS(s); ok {
		m, err := core.ShardPLS(pls, t)
		if err != nil {
			return nil, err
		}
		return FromMultiRPLS(m), nil
	}
	if rpls, ok := AsRPLS(s); ok {
		m, err := core.ShardCompile(rpls, t)
		if err != nil {
			return nil, err
		}
		return FromMultiRPLS(m), nil
	}
	return nil, fmt.Errorf("engine: scheme %s is not a core PLS/RPLS adapter; cannot shard", s.Name())
}
