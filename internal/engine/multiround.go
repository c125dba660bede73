package engine

import "fmt"

// Multi-round (t-PLS) verification. A sharded scheme spreads its per-port
// strings over t synchronous rounds of ⌈κ/t⌉ bits per port under
// core.Shard's fixed layout. The contract is "once per trial": in trial
// seed, node v derives its strings once, from prng.New(seed).Fork(v),
// exactly as the base scheme would in one round. The round kernel
// (kernel.run) meters each L-bit string as the t shards of that
// layout — t messages, L wire bits, and a widest shard of
// core.ShardWidth(L, t) bits (see Stats.meterShards) — and hands Decide
// the whole string, which is bit for bit the round-order concatenation
// the receiver would have reassembled. Sharding changes only the
// metering, so the lane loop runs a sharded scheme from its base
// scheme's prepared nodes, on both executors and at any lane width. The
// test-only goroutine oracle ships the real shards over its per-edge
// channels round by round and reassembles them, so it checks the kernel's
// metering rule independently; the golden-bits test at t ∈ {1, 2, 4}
// enforces that both executors agree with it.

// sharded runs its base scheme over rounds > 1 rounds. Labels, coins,
// strings, decisions, determinism and one-sidedness are the base scheme's;
// only the round count — and with it the metering — changes. A sharded
// deterministic scheme still broadcasts its label, one shard per round.
type sharded struct {
	Scheme
	rounds int
}

func (s sharded) Name() string { return fmt.Sprintf("%s+shard%d", s.Scheme.Name(), s.rounds) }

// Shard wraps a registered scheme into its t-round sharded form (the
// constructive direction of the κ/t tradeoff): per port and per round it
// sends ⌈κ/t⌉ bits, and the receiver's reassembly feeds the base decision.
// t == 1 returns the scheme unchanged, so the rounds axis degenerates to
// the classic engine exactly; t > κ is legal (the late rounds carry empty
// shards); t < 1 is rejected. Only schemes adapted from the core model
// types (FromPLS / FromRPLS) can be sharded — everything in the registry
// is.
func Shard(s Scheme, t int) (Scheme, error) {
	if t == 1 {
		return s, nil
	}
	if t < 1 {
		return nil, fmt.Errorf("engine: shard %s into %d rounds: need t >= 1", s.Name(), t)
	}
	_, pls := AsPLS(s)
	_, rpls := AsRPLS(s)
	if !pls && !rpls {
		return nil, fmt.Errorf("engine: scheme %s is not a core PLS/RPLS adapter; cannot shard", s.Name())
	}
	return sharded{Scheme: s, rounds: t}, nil
}

// Rounds reports the number of verification rounds a scheme runs: t for a
// sharded scheme, capped or not, and 1 otherwise.
func Rounds(s Scheme) int {
	if w, ok := s.(capScheme); ok {
		s = w.inner
	}
	if w, ok := s.(sharded); ok {
		return w.rounds
	}
	return 1
}
