package core

import (
	"fmt"

	"rpls/internal/bitstring"
)

// Congestion-bounded verification (Patt-Shamir & Perry: broadcast, unicast
// and in between). A message-multiplicity cap m partitions each node's
// ports into at most m classes; within one round, every port of a class
// must carry an identical payload. m = 1 is the broadcast model (one
// message repeated on every port), m >= deg is classic unicast (every port
// independent), and the values in between interpolate. The cap never
// changes what a round IS — one string per port — only how many distinct
// strings a node may mint, so executors, gathering, and wire accounting
// are untouched. This file defines the class assignment and the wire
// formats of the two degradations, CapMerge and CapReplicate; the engine
// applies them around every scheme's own nodes (engine/congestion.go).
//
// The class assignment is fixed and global: 0-based port i belongs to
// class PortClass(i, m) = i mod m. Round-robin keeps class sizes balanced
// (every class has ⌈deg/m⌉ or ⌊deg/m⌋ members) and lets a receiver locate
// its edge inside the sender's class without knowing the sender's port
// numbering, because the partition depends only on m.

// PortClass returns the class of 0-based port index i under cap m. Ports
// are partitioned round-robin; m <= 0 means uncapped (every port its own
// class).
func PortClass(i, m int) int {
	if m <= 0 {
		return i
	}
	return i % m
}

// CapMerge is the payload-merging degradation: it concatenates the
// certificates of each round-robin class into one self-delimiting class
// message and replicates it onto every member port. The class message is
//
//	gamma(classSize) · ( gamma(len(cert)) · cert )*   in member port order
//
// and is framed even for singleton classes (any m >= 1, including
// m >= deg), so a receiver can CapSplit a message without knowing the
// sender's degree or which class it is reading. Merging is what makes the
// congestion axis bite: class sizes are ⌈deg/m⌉ or ⌊deg/m⌋, so a node's
// total wire bits scale like Σ_k size_k² — strictly falling from deg²
// at broadcast (m=1) to deg framed singletons at unicast — whereas the
// CapReplicate fallback is flat in m. m <= 0 returns certs untouched.
// Each class message is sized first, by CapWidths into sc's call region,
// which it gives back on return, and written into exactly that many bytes
// of sc's run region, so it lives as long as the certificates of the run
// it is sent in.
//
//pls:hotpath
func CapMerge(certs []Cert, m int, sc *Scratch) []Cert {
	if m <= 0 {
		return certs
	}
	deg := len(certs)
	call := sc.mark()
	bits := sc.ints.take(deg)
	for i, c := range certs {
		bits[i] = c.Len()
	}
	CapWidths(bits, m)
	var w bitstring.Writer
	for k := 0; k < min(m, deg); k++ {
		w.ResetInto(sc.run.take((bits[k] + 7) / 8))
		w.WriteGamma(uint64((deg - k + m - 1) / m))
		for i := k; i < deg; i += m {
			w.WriteGamma(uint64(certs[i].Len()))
			w.WriteString(certs[i])
		}
		msg := w.TakeString()
		for i := k; i < deg; i += m {
			certs[i] = msg
		}
	}
	sc.release(call)
	return certs
}

// CapWidths rewrites widths, the length of a node's string on each port,
// into the length of the CapMerge message cap m sends there:
// gamma(classSize) and then every member's gamma(len)‖member, for the
// port's class. It is the one sizing definition of a class message:
// CapMerge sizes the messages it writes through it, and the engine meters
// a merged node's coin-free widths with it.
//
//pls:hotpath
func CapWidths(widths []int, m int) {
	deg := len(widths)
	if m <= 0 {
		return
	}
	for k := 0; k < min(m, deg); k++ {
		bits := bitstring.GammaBits(uint64((deg - k + m - 1) / m))
		for i := k; i < deg; i += m {
			bits += bitstring.GammaBits(uint64(widths[i])) + widths[i]
		}
		for i := k; i < deg; i += m {
			widths[i] = bits
		}
	}
}

// CapSplit parses one CapMerge class message back into its member
// certificates, in the sender's member port order. Errors on malformed
// framing; the receiver rejects such a message.
func CapSplit(msg Cert) ([]Cert, error) {
	r := bitstring.NewReader(msg)
	size, err := readCount(r, 0)
	if err != nil {
		return nil, err
	}
	out := make([]Cert, size)
	if _, err := readMembers(r, out, nil); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("trailing bits after %d members", size)
	}
	return out, nil
}

// CapReplicate is the generic fallback degradation: it rewrites certs in
// place so every port of a round-robin class carries the class's
// max-length payload (ties broken by lowest port), and returns the slice.
// Replication keeps every registered scheme runnable at any m — all the
// repository's randomized schemes send a fingerprint of the node's own
// payload per port, and a fingerprint drawn for one port verifies on any
// other — at a wire cost that is flat in m: the separation from genuinely
// unicast-natural schemes is the point of the congestion axis.
// m <= 0 and m >= len(certs) are the uncapped cases and return certs
// untouched. The rewrite allocates nothing.
func CapReplicate(certs []Cert, m int) []Cert {
	if m <= 0 || m >= len(certs) {
		return certs
	}
	for k := 0; k < m; k++ {
		rep := k
		for i := k + m; i < len(certs); i += m {
			if certs[i].Len() > certs[rep].Len() {
				rep = i
			}
		}
		for i := k; i < len(certs); i += m {
			certs[i] = certs[rep]
		}
	}
	return certs
}
