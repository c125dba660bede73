package core_test

import (
	"math"
	"testing"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/prng"
)

func randomString(bits int, rng *prng.Rand) bitstring.String {
	var w bitstring.Writer
	for i := 0; i < bits; i++ {
		w.WriteBit(rng.Bit())
	}
	return w.String()
}

// TestShardLayout pins the fixed shard layout: every shard but the last is
// exactly ShardWidth bits, rounds past the content are empty, and the
// round-order concatenation reconstructs the base string bit for bit —
// including the t = 1, t = L, and t > L edge cases.
func TestShardLayout(t *testing.T) {
	rng := prng.New(7)
	for _, bits := range []int{0, 1, 5, 8, 17, 64, 129} {
		base := randomString(bits, rng)
		for _, rounds := range []int{1, 2, 3, 4, bits, bits + 3, 200} {
			if rounds < 1 {
				continue
			}
			width := core.ShardWidth(bits, rounds)
			if bits > 0 {
				if want := (bits + rounds - 1) / rounds; width != want {
					t.Fatalf("ShardWidth(%d, %d) = %d, want ⌈bits/rounds⌉ = %d", bits, rounds, width, want)
				}
			} else if width != 0 {
				t.Fatalf("ShardWidth(0, %d) = %d, want 0", rounds, width)
			}
			shards := make([]bitstring.String, rounds)
			for r := range shards {
				shards[r] = core.Shard(base, r, rounds)
				if shards[r].Len() > width {
					t.Fatalf("bits=%d rounds=%d: shard %d is %d bits, over the %d-bit width",
						bits, rounds, r, shards[r].Len(), width)
				}
			}
			if got := bitstring.Concat(shards...); !got.Equal(base) {
				t.Fatalf("bits=%d rounds=%d: reassembly %q != base %q", bits, rounds, got, base)
			}
		}
	}
}

// FuzzShardReassembly fuzzes the layout's round-count edge cases: any
// t >= 1 must reassemble any string exactly under the fixed layout with
// per-shard width ⌈L/t⌉, and t <= 0 has width 0. That engine.Shard
// rejects t <= 0 is fuzzed by the engine's FuzzShardRounds.
func FuzzShardReassembly(f *testing.F) {
	f.Add([]byte{0xa5, 0x0f}, 13, 3)
	f.Add([]byte{}, 0, 1)
	f.Add([]byte{0xff}, 8, 100) // t > κ
	f.Add([]byte{0x01}, 5, 0)   // t = 0
	f.Add([]byte{0x80, 0x01}, 9, -4)
	f.Add([]byte{0x3c}, 6, math.MaxInt) // t + L overflows int
	f.Fuzz(func(t *testing.T, data []byte, bits, rounds int) {
		if bits < 0 || bits > 8*len(data) {
			bits = 8 * len(data)
		}
		base := bitstring.FromBytes(data).Truncate(bits)
		if rounds < 1 {
			if w := core.ShardWidth(base.Len(), rounds); w != 0 {
				t.Fatalf("ShardWidth(%d, %d) = %d, want 0", base.Len(), rounds, w)
			}
			return
		}
		if base.Len() > 0 && rounds >= base.Len() {
			if w := core.ShardWidth(base.Len(), rounds); w != 1 {
				t.Fatalf("ShardWidth(%d, %d) = %d, want 1 for t >= L", base.Len(), rounds, w)
			}
		}
		if rounds > 1<<16 {
			rounds = 1 + rounds%(1<<16)
		}
		width := core.ShardWidth(base.Len(), rounds)
		shards := make([]bitstring.String, rounds)
		for r := range shards {
			shards[r] = core.Shard(base, r, rounds)
			if shards[r].Len() > width {
				t.Fatalf("shard %d of %d: %d bits exceeds width %d", r, rounds, shards[r].Len(), width)
			}
		}
		if got := bitstring.Concat(shards...); !got.Equal(base) {
			t.Fatalf("t=%d: reassembly mismatch for %d-bit string", rounds, base.Len())
		}
	})
}
