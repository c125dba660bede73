package core_test

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"rpls/internal/bitstring"
	"rpls/internal/core"
	"rpls/internal/graph"
	"rpls/internal/prng"
)

// makeCerts builds deg distinct certificates of varying lengths.
func makeCerts(deg int) []core.Cert {
	certs := make([]core.Cert, deg)
	for i := range certs {
		var w bitstring.Writer
		w.WriteGamma(uint64(i + 1))
		for j := 0; j <= i%3; j++ {
			w.WriteUint(uint64(i*31+j), 16)
		}
		certs[i] = w.String()
	}
	return certs
}

func TestPortClassRoundRobin(t *testing.T) {
	for m := 1; m <= 5; m++ {
		for i := 0; i < 20; i++ {
			if got := core.PortClass(i, m); got != i%m {
				t.Fatalf("PortClass(%d, %d) = %d, want %d", i, m, got, i%m)
			}
		}
	}
	if core.PortClass(7, 0) != 7 || core.PortClass(7, -1) != 7 {
		t.Error("uncapped PortClass must leave every port its own class")
	}
	// Round-robin balance: class sizes differ by at most one.
	for deg := 1; deg <= 12; deg++ {
		for m := 1; m <= deg+2; m++ {
			sizes := map[int]int{}
			for i := 0; i < deg; i++ {
				sizes[core.PortClass(i, m)]++
			}
			lo, hi := deg, 0
			for _, s := range sizes {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			if hi-lo > 1 {
				t.Fatalf("deg=%d m=%d: class sizes unbalanced (%d..%d)", deg, m, lo, hi)
			}
		}
	}
}

func TestCapMergeSplitRoundTrip(t *testing.T) {
	for deg := 0; deg <= 9; deg++ {
		for m := 1; m <= deg+2; m++ {
			t.Run(fmt.Sprintf("deg=%d/m=%d", deg, m), func(t *testing.T) {
				orig := makeCerts(deg)
				merged := core.CapMerge(makeCerts(deg), m, new(core.Scratch))
				if len(merged) != deg {
					t.Fatalf("CapMerge changed arity: %d != %d", len(merged), deg)
				}
				// Class uniformity: every port of a class carries the same
				// message, and splitting it recovers the class members in
				// member port order.
				for k := 0; k < m && k < deg; k++ {
					var wantMembers []core.Cert
					for i := k; i < deg; i += m {
						wantMembers = append(wantMembers, orig[i])
						if !merged[i].Equal(merged[k]) {
							t.Fatalf("port %d differs from its class representative %d", i, k)
						}
					}
					got, err := core.CapSplit(merged[k])
					if err != nil {
						t.Fatalf("CapSplit class %d: %v", k, err)
					}
					if len(got) != len(wantMembers) {
						t.Fatalf("class %d: %d members, want %d", k, len(got), len(wantMembers))
					}
					for j := range got {
						if !got[j].Equal(wantMembers[j]) {
							t.Fatalf("class %d member %d corrupted by round trip", k, j)
						}
					}
				}
			})
		}
	}
}

func TestCapMergeFramesSingletons(t *testing.T) {
	// m >= deg still frames each certificate: the receiver cannot know the
	// sender's degree, so the wire format must be uniform for every m >= 1.
	certs := makeCerts(3)
	merged := core.CapMerge(makeCerts(3), 7, new(core.Scratch))
	for i := range merged {
		if merged[i].Equal(certs[i]) {
			t.Fatalf("port %d: singleton class not framed", i)
		}
		got, err := core.CapSplit(merged[i])
		if err != nil {
			t.Fatalf("port %d: %v", i, err)
		}
		if len(got) != 1 || !got[0].Equal(certs[i]) {
			t.Fatalf("port %d: singleton round trip lost the payload", i)
		}
	}
	// m <= 0 is the uncapped identity.
	if un := core.CapMerge(makeCerts(3), 0, new(core.Scratch)); !un[1].Equal(certs[1]) {
		t.Error("CapMerge(certs, 0) must return certs untouched")
	}
}

func TestCapSplitRejectsMalformed(t *testing.T) {
	merged := core.CapMerge(makeCerts(4), 2, new(core.Scratch))
	msg := merged[0]
	// Truncation mid-member.
	if _, err := core.CapSplit(msg.Truncate(msg.Len() - 3)); err == nil {
		t.Error("truncated class message parsed")
	}
	// Trailing garbage after the last member.
	var w bitstring.Writer
	w.WriteString(msg)
	w.WriteUint(1, 1)
	if _, err := core.CapSplit(w.String()); err == nil {
		t.Error("trailing bits accepted")
	}
	// Empty message.
	if _, err := core.CapSplit(bitstring.String{}); err == nil {
		t.Error("empty message parsed")
	}
}

// hostileClassMessage is a 41-bit class message that claims 2²⁰ members
// and carries none of them.
func hostileClassMessage() core.Cert {
	var w bitstring.Writer
	w.WriteGamma(1 << 20)
	return w.String()
}

// TestCapSplitBoundsClassSize: a class size the message cannot hold — each
// member needs at least its one-bit gamma length — is rejected before the
// member slice is allocated, so a 41-bit message cannot make the parser
// reserve room for a million members.
func TestCapSplitBoundsClassSize(t *testing.T) {
	msg := hostileClassMessage()
	if msg.Len() != 41 {
		t.Fatalf("hostile message has %d bits, want 41", msg.Len())
	}
	const calls = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := core.CapSplit(msg); err == nil {
			t.Fatal("class size of 2^20 members accepted from a 41-bit message")
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 1024 {
		t.Fatalf("rejecting the hostile message allocates %d bytes per call, want <= 1024", perCall)
	}
}

// reframe writes members back in the CapMerge class-message format.
func reframe(members []core.Cert) bitstring.String {
	var w bitstring.Writer
	w.WriteGamma(uint64(len(members)))
	for _, m := range members {
		w.WriteGamma(uint64(m.Len()))
		w.WriteString(m)
	}
	return w.String()
}

// memberProbe is a one-sided scheme on one port whose Decide accepts and
// records the string that arrived, so a Boost over it shows the
// repetitions each of Boost's Decide paths unframes.
type memberProbe struct{ seen *[]core.Cert }

func (memberProbe) Name() string                              { return "member-probe" }
func (memberProbe) OneSided() bool                            { return true }
func (memberProbe) Label(*graph.Config) ([]core.Label, error) { return nil, nil }
func (memberProbe) Certs(view core.View, _ core.Label, _ *prng.Rand) []core.Cert {
	return make([]core.Cert, view.Deg)
}

func (p memberProbe) Decide(_ core.View, _ core.Label, received []core.Cert) bool {
	*p.seen = append(*p.seen, received...)
	return true
}

// FuzzCapSplit fuzzes the member-list reader every capped and boosted
// decision runs on received bits, in both framings. The oracle: no panic;
// a message CapSplit accepts (a leading gamma count) re-frames to exactly
// its input bits; and read as t ∈ {2, 3} Boost repetitions on one port,
// the prepared node (core.DecideWindows) accepts exactly when Boost's
// label path, which unframes one repetition at a time, does, and then
// hands its inner node the same repetitions in the same order.
func FuzzCapSplit(f *testing.F) {
	honest := core.CapMerge(makeCerts(5), 2, new(core.Scratch))[0]
	hostile := hostileClassMessage()
	var boosted bitstring.Writer // three repetitions, framed without a count
	for _, c := range makeCerts(3) {
		boosted.WriteGamma(uint64(c.Len()))
		boosted.WriteString(c)
	}
	for _, msg := range []core.Cert{honest, hostile, honest.Truncate(honest.Len() - 1), {}, boosted.String()} {
		f.Add(msg.Bytes(), msg.Len())
	}
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		if bits < 0 || bits > 8*len(data) {
			bits = 8 * len(data)
		}
		msg := bitstring.FromBytes(data).Truncate(bits)
		if members, err := core.CapSplit(msg); err == nil {
			if got := reframe(members); !got.Equal(msg) {
				t.Fatalf("accepted %d-bit message re-frames to %d different bits", msg.Len(), got.Len())
			}
		}
		view := core.View{Deg: 1}
		for _, reps := range []int{2, 3} {
			var byPath, byNode []core.Cert
			want := core.Boost(memberProbe{&byPath}, reps).Decide(view, core.Label{}, []core.Cert{msg})
			node := core.Boost(memberProbe{&byNode}, reps).(core.Preparer).Prepare(view, core.Label{})
			if got := node.Decide([][]core.Cert{{msg}}, new(core.Scratch)) == 1; got != want || want && !certsEqual(byNode, byPath) {
				t.Fatalf("t=%d: node reads %d repetitions and votes %v, label path %d and %v", reps, len(byNode), got, len(byPath), want)
			}
		}
	})
}

// windowCounter is an inner node that accepts every window and counts
// them.
type windowCounter struct{ windows *int }

func (windowCounter) Certs([]*prng.Rand, [][]core.Cert, *core.Scratch) {}

func (c windowCounter) Decide(recv [][]core.Cert, _ *core.Scratch) uint64 {
	*c.windows += len(recv)
	return core.LaneMask(len(recv))
}

func (windowCounter) CoinFree([]int) (sized, rejects bool) { return false, false }

// TestDecideWindowsHoldsOneGroup: DecideWindows reads the members of one
// group of lanes at a time — at most 64 windows, or one lane with more —
// and gives them back before it reads the next group. On 64 lanes of deg
// class messages of size members each, every lane is a group of size
// windows, so a cold call allocates for about one lane's deg·size members,
// not for all lanes·deg·size of them.
func TestDecideWindowsHoldsOneGroup(t *testing.T) {
	const lanes, deg, size = 64, 64, 64
	msg := core.CapMerge(makeCerts(size), 1, new(core.Scratch))[0]
	recv := make([][]core.Cert, lanes)
	for l := range recv {
		recv[l] = make([]core.Cert, deg)
		for i := range recv[l] {
			recv[l][i] = msg
		}
	}
	windows := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	votes := core.DecideWindows(windowCounter{&windows}, recv, deg, 0, false, new(core.Scratch))
	runtime.ReadMemStats(&after)
	if votes != core.LaneMask(lanes) || windows != lanes*size {
		t.Fatalf("votes %#x over %d windows, want %#x over %d", votes, windows, core.LaneMask(lanes), lanes*size)
	}
	all := uint64(lanes * deg * size * int(unsafe.Sizeof(core.Cert{})))
	if got := after.TotalAlloc - before.TotalAlloc; got >= all/8 {
		t.Fatalf("cold call allocates %d bytes, not under an eighth of all lanes' members (%d bytes)", got, all)
	}
}

// TestCapMergeGivesBackItsSizing: CapMerge sizes its class messages in
// the call region and gives those ints back before it returns, so the
// lanes of one capped Certs call, each merged on the same Scratch without
// a reset in between, hold one lane's sizing, not lanes·deg ints.
func TestCapMergeGivesBackItsSizing(t *testing.T) {
	const lanes, deg = 64, 1024
	var w bitstring.Writer
	w.WriteBit(1)
	bit := w.String()
	certs := make([][]core.Cert, lanes)
	for l := range certs {
		certs[l] = make([]core.Cert, deg)
		for i := range certs[l] {
			certs[l][i] = bit
		}
	}
	sc := new(core.Scratch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range certs {
		core.CapMerge(c, 1, sc)
	}
	runtime.ReadMemStats(&after)
	all := uint64(lanes * deg * int(unsafe.Sizeof(0)))
	if got := after.TotalAlloc - before.TotalAlloc; got >= all/2 {
		t.Fatalf("%d merges allocate %d bytes, not under half of all lanes' sizing (%d bytes)", lanes, got, all)
	}
}

func TestCapReplicateElectsMaxLength(t *testing.T) {
	certs := makeCerts(7)
	orig := makeCerts(7)
	rep := core.CapReplicate(certs, 3)
	for k := 0; k < 3; k++ {
		// The elected payload is the max-length member (lowest port on ties)
		// and every member port carries it.
		best := k
		for i := k + 3; i < 7; i += 3 {
			if orig[i].Len() > orig[best].Len() {
				best = i
			}
		}
		for i := k; i < 7; i += 3 {
			if !rep[i].Equal(orig[best]) {
				t.Fatalf("class %d port %d: payload is not the elected representative %d", k, i, best)
			}
		}
	}
	// Uncapped and m >= deg are identities.
	id := core.CapReplicate(makeCerts(5), 0)
	for i, c := range makeCerts(5) {
		if !id[i].Equal(c) {
			t.Fatal("CapReplicate(certs, 0) must be the identity")
		}
	}
	id = core.CapReplicate(makeCerts(5), 5)
	for i, c := range makeCerts(5) {
		if !id[i].Equal(c) {
			t.Fatal("CapReplicate(certs, deg) must be the identity")
		}
	}
}
