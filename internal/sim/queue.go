package sim

// item is one event-queue entry. Items are plain values stored in the
// scheduler's slice-backed heap, never behind per-event pointers, so
// the steady-state event loop performs no heap allocation. ref packs
// the scheduler's (slot, generation) handle.
type item struct {
	at  Time
	seq uint64
	ref uint64
}

// itemLess orders items by (time, insertion sequence): the same
// FIFO-within-timestamp total order NS-3's schedulers guarantee. The
// order is total — seq is unique — so the pop sequence is fixed by the
// items alone, whatever the heap's internal layout.
func itemLess(a, b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The event queue is a 4-ary min-heap in Scheduler.q, ordered by
// itemLess. Compared with a binary container/heap it avoids interface
// boxing and per-push allocation, halves the tree depth, and keeps a
// node's children in one cache line. The minimum is s.q[0].

// push inserts it into the heap.
func (s *Scheduler) push(it item) {
	s.q = append(s.q, it) //simlint:allow allocfree(heap slab doubling is amortized O(1) per event; a warmed queue pushes into spare capacity)
	i := len(s.q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !itemLess(it, s.q[p]) {
			break
		}
		s.q[i] = s.q[p]
		i = p
	}
	s.q[i] = it
}

// pop removes the minimum item s.q[0]; the queue must be non-empty.
func (s *Scheduler) pop() {
	n := len(s.q) - 1
	last := s.q[n]
	s.q = s.q[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
}

// siftDown stores x at index i, moving it down past any smaller child
// until the heap property holds below i.
func (s *Scheduler) siftDown(i int, x item) {
	q := s.q
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		hi := min(c+4, n)
		for j := c + 1; j < hi; j++ {
			if itemLess(q[j], q[best]) {
				best = j
			}
		}
		if !itemLess(q[best], x) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = x
}
