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
// one when it has no ports. Windows of any lanes go to inner up to 64 per
// call. A lane accepts when all its windows do, or, under majority, when a
// strict majority of them does. A call reads all its members into one
// slab, and the windows are views of them.
func DecideWindows(inner Prepared, recv [][]Cert, deg, count int, majority bool) uint64 {
	lanes := len(recv)
	var wins, accepts [64]int // per lane: windows (0 rejects the lane), and windows accepted
	// Pass 1: count every list's members into offs[k+1] and size the slab:
	// a member of n ≤ L bits takes at most (n+7)/8 bytes, so an L-bit list
	// of size members needs at most (L + 7·size)/8.
	var r bitstring.Reader
	offs := make([]int, lanes*deg+1)
	total, slabBytes := 0, 0
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
			slabBytes += (msg.Len()+7*size)/8 + 1
		}
		total += wins[l]
	}
	for k := range lanes * deg {
		offs[k+1] += offs[k]
	}
	// Pass 2: read the members. One inner call's windows follow them.
	members := offs[lanes*deg]
	certs := make([]Cert, members+min(total, 64)*deg)
	slab := make([]byte, slabBytes)
	for l, msgs := range recv {
		for i := 0; i < deg && wins[l] > 0; i++ {
			r.Reset(msgs[i])
			_, err := readCount(&r, count)
			if err == nil {
				slab, err = readMembers(&r, certs[offs[l*deg+i]:offs[l*deg+i+1]], slab)
			}
			if err != nil || r.Remaining() != 0 {
				total -= wins[l]
				wins[l] = 0
			}
		}
	}
	// Pass 3: answer the windows.
	batch := make([][]Cert, min(total, 64))
	var owner [64]int
	b := 0
	for l := range lanes {
		for j := range wins[l] {
			w := certs[members+b*deg : members+(b+1)*deg]
			for i := range w {
				first, last := offs[l*deg+i], offs[l*deg+i+1]-1
				w[i] = certs[min(first+j, last)]
			}
			batch[b], owner[b] = w, l
			if b, total = b+1, total-1; b == len(batch) || total == 0 {
				mask := inner.Decide(batch[:b])
				for v, o := range owner[:b] {
					accepts[o] += int(mask >> uint(v) & 1)
				}
				b = 0
			}
		}
	}
	var votes uint64
	for l := range lanes {
		if w := wins[l]; w > 0 && (accepts[l] == w || majority && 2*accepts[l] > w) {
			votes |= 1 << uint(l)
		}
	}
	return votes
}
