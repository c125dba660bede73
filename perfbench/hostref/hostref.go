// Package hostref is the benchmark's reference slice: a fixed,
// allocation-free integer and sort kernel that measures how fast the host
// is right now. The benchmark runs one slice beside every operation and
// divides the operation's time by the slice's, so host speed drift (CPU
// steal, frequency changes, noisy neighbours) cancels out of the reported
// metrics.
//
// The package imports the standard library only. Its work must never
// depend on the program under test, or a change to the program would move
// the yardstick it is measured with.
package hostref

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

const (
	// bufLen is the sorted working set of one worker: 32 KiB of uint64,
	// about the size of an L1 data cache, like the labels and certificate
	// buffers of one verification round.
	bufLen = 4096
	// rounds is the number of fill-sort-fold passes in one slice; it puts
	// one slice at roughly 20 ms on a 2020s x86 core.
	rounds = 48
	// prime is the modulus of the Horner fold, a 61-bit Mersenne prime, so
	// the fold does the same 128-bit multiply and remainder the field
	// arithmetic of a fingerprint does.
	prime = 1<<61 - 1
)

// Kernel runs one slice of work over buf and returns its checksum. The
// checksum depends only on len(buf), so every worker and every slice of a
// run must return the same value.
func Kernel(buf []uint64) uint64 {
	var sum uint64
	for r := 0; r < rounds; r++ {
		x := uint64(0x9E3779B97F4A7C15) + uint64(r)
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = x
		}
		slices.Sort(buf)
		var h uint64
		for _, v := range buf {
			hi, lo := bits.Mul64(h^v, 0x100000001B3)
			h = bits.Rem64(hi, lo, prime)
		}
		sum ^= h + uint64(r)
	}
	return sum
}

// Slice runs the kernel on a fixed set of worker goroutines, one buffer
// each. Its buffers and goroutines are made once by New, so Run allocates
// nothing and a slice measures the host, not the allocator.
type Slice struct {
	bufs  [][]uint64
	sums  []uint64
	start []chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// New returns a slice that runs on workers goroutines (at least one). The
// caller's goroutine is worker 0; Close stops the others.
func New(workers int) *Slice {
	if workers < 1 {
		workers = 1
	}
	s := &Slice{
		bufs:  make([][]uint64, workers),
		sums:  make([]uint64, workers),
		start: make([]chan struct{}, workers),
		done:  make(chan struct{}, workers),
	}
	for i := range s.bufs {
		s.bufs[i] = make([]uint64, bufLen)
	}
	for i := 1; i < workers; i++ {
		s.start[i] = make(chan struct{})
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

func (s *Slice) worker(i int) {
	defer s.wg.Done()
	for range s.start[i] {
		s.sums[i] = Kernel(s.bufs[i])
		s.done <- struct{}{}
	}
}

// Run executes one slice on every worker and returns when all have
// finished. It returns an error if the workers disagree on the checksum,
// which only a miscompiled or corrupted kernel could cause.
func (s *Slice) Run() error {
	for i := 1; i < len(s.start); i++ {
		s.start[i] <- struct{}{}
	}
	s.sums[0] = Kernel(s.bufs[0])
	for i := 1; i < len(s.start); i++ {
		<-s.done
	}
	for _, v := range s.sums[1:] {
		if v != s.sums[0] {
			return fmt.Errorf("hostref: worker checksums differ: %#x vs %#x", v, s.sums[0])
		}
	}
	return nil
}

// Checksum returns the checksum of the last Run.
func (s *Slice) Checksum() uint64 { return s.sums[0] }

// Close stops the worker goroutines and waits until they have exited.
func (s *Slice) Close() {
	for i := 1; i < len(s.start); i++ {
		close(s.start[i])
	}
	s.wg.Wait()
}
