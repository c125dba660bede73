package core

import (
	"fmt"

	"rpls/internal/bitstring"
)

// readCount reads the member count at the head of a framed member list:
// count itself when the framing fixes it, or the list's leading gamma code
// when count is 0. Every member costs at least its one-bit gamma length, so
// a count the rest of the list cannot hold is rejected before any member
// storage is sized by it.
func readCount(r *bitstring.Reader, count int) (int, error) {
	size := uint64(count)
	if count == 0 {
		var err error
		if size, err = r.ReadGamma(); err != nil {
			return 0, fmt.Errorf("class size: %w", err)
		}
	}
	if size > uint64(r.Remaining()) {
		return 0, fmt.Errorf("class size %d exceeds the %d bits left", size, r.Remaining())
	}
	return int(size), nil
}

// readMembers reads len(out) members, each framed by its gamma-coded
// length, from r into out. A member is assembled inside slab when its
// capacity suffices, and the rest of slab is returned for the next read;
// otherwise the member is allocated on its own.
func readMembers(r *bitstring.Reader, out []Cert, slab []byte) ([]byte, error) {
	for j := range out {
		n, err := r.ReadGamma()
		if err != nil {
			return slab, fmt.Errorf("member %d length: %w", j, err)
		}
		if n > 1<<30 {
			return slab, fmt.Errorf("implausible member %d length %d", j, n)
		}
		if out[j], err = r.ReadStringInto(int(n), slab); err != nil {
			return slab, fmt.Errorf("member %d payload: %w", j, err)
		}
		slab = slab[min((int(n)+7)/8, len(slab)):]
	}
	return slab, nil
}

// DecideWindows is the one decider of framed member lists: Boost's t
// repetitions (footnote 1) and the capped round's CapMerge class messages
// (Patt-Shamir–Perry). Each lane of recv carries one list per port, deg
// ports in all, of exactly count members when count > 0, or of as many as
// the list's leading gamma code gives when count is 0 (at least one). A
// lane with another port count, or with a list that does not parse to its
// last bit, rejects.
//
// Every other lane is answered through inner on member windows: window j
// carries member min(j, size−1) of every port's list, so every member meets
// its port's check, and a lane has as many windows as its longest list —
// one when it has no ports. A lane accepts when all its windows do, or,
// under majority, when a strict majority of them does. The lanes are
// answered group by group: a run of lanes with at most 64 windows in all,
// or one lane with more. A group's members are read into one slab, its
// windows are views of them and go to inner up to 64 per call. Every
// buffer comes from sc's call region; each inner call gives back what it
// took there, and each group what it read, so a call holds one group's
// members and one inner call's buffers, not every lane's and every call's.
//
//pls:hotpath
func DecideWindows(inner Prepared, recv [][]Cert, deg, count int, majority bool, sc *Scratch) uint64 {
	lanes := len(recv)
	// Per lane: windows (0 rejects the lane), windows accepted, slab bytes.
	var wins, accepts, slabBytes [64]int
	// Pass 1: count every list's members into offs[k+1] and size each
	// lane's slab: a member of n ≤ L bits takes at most (n+7)/8 bytes, so
	// an L-bit list of size members needs at most (L + 7·size)/8.
	var r bitstring.Reader
	offs := sc.ints.take(lanes*deg + 1)
	clear(offs)
	total := 0
	for l, msgs := range recv {
		if len(msgs) != deg {
			continue
		}
		wins[l] = 1
		for i, msg := range msgs {
			r.Reset(msg)
			size, err := readCount(&r, count)
			if err != nil || size == 0 {
				wins[l] = 0
				break
			}
			offs[l*deg+i+1], wins[l] = size, max(wins[l], size)
			slabBytes[l] += (msg.Len()+7*size)/8 + 1
		}
		total += wins[l]
	}
	for k := range lanes * deg {
		offs[k+1] += offs[k]
	}
	// Pass 2, group by group: read the group's members, then answer its
	// windows. One inner call's windows live in views.
	batch := sc.lists.take(min(total, 64))
	views := sc.certs.take(len(batch) * deg)
	var owner [64]int
	for lo, hi := 0, 0; lo < lanes; lo = hi {
		pending, bytes := wins[lo], slabBytes[lo]
		for hi = lo + 1; hi < lanes && pending+wins[hi] <= 64; hi++ {
			pending, bytes = pending+wins[hi], bytes+slabBytes[hi]
		}
		group := sc.mark()
		base := offs[lo*deg]
		members := sc.certs.take(offs[hi*deg] - base)
		slab := sc.bytes.take(bytes)
		for l := lo; l < hi; l++ {
			for i := 0; i < deg && wins[l] > 0; i++ {
				r.Reset(recv[l][i])
				_, err := readCount(&r, count)
				if err == nil {
					slab, err = readMembers(&r, members[offs[l*deg+i]-base:offs[l*deg+i+1]-base], slab)
				}
				if err != nil || r.Remaining() != 0 {
					pending -= wins[l]
					wins[l] = 0
				}
			}
		}
		call := sc.mark()
		b := 0
		for l := lo; l < hi; l++ {
			for j := range wins[l] {
				w := views[b*deg : (b+1)*deg]
				for i := range w {
					first, last := offs[l*deg+i]-base, offs[l*deg+i+1]-base-1
					w[i] = members[min(first+j, last)]
				}
				batch[b], owner[b] = w, l
				if b, pending = b+1, pending-1; b == len(batch) || pending == 0 {
					mask := inner.Decide(batch[:b], sc)
					sc.release(call)
					for v, o := range owner[:b] {
						accepts[o] += int(mask >> uint(v) & 1)
					}
					b = 0
				}
			}
		}
		sc.release(group)
	}
	var votes uint64
	for l := range lanes {
		if w := wins[l]; w > 0 && (accepts[l] == w || majority && 2*accepts[l] > w) {
			votes |= 1 << uint(l)
		}
	}
	return votes
}
