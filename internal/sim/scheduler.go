package sim

import (
	"errors"
	"math/rand"
)

// ErrStopped is returned by Run when the simulation was halted by an
// explicit call to Stop rather than by exhausting the event queue or
// reaching the configured horizon.
var ErrStopped = errors.New("sim: simulation stopped")

// EventID identifies a scheduled event so it can be cancelled. An id
// packs a slot index and a generation stamp; the zero EventID is never
// issued, so a zero-valued id field is always safe to Cancel (a no-op).
type EventID uint64

// slot holds one scheduled event's mutable state. Slots live in a
// flat table and are recycled through a free list; the generation
// stamp distinguishes the current tenant from stale queue entries and
// stale EventIDs, which is what lets Cancel run in O(1) with no map.
type slot struct {
	fn   func()
	src  string
	gen  uint32
	live bool

	// Sharded-mode extensions. lp attributes the event to a logical
	// process (nil in the legacy single-threaded kernel); h/a/b hold a
	// mailbox message's handler triple when fn is nil, so barrier
	// insertion of cross-shard packets allocates no closures.
	lp *LP
	h  MsgHandler
	a  any
	b  any
}

func packRef(idx uint32, gen uint32) uint64 { return uint64(idx)<<32 | uint64(gen) }

func unpackRef(ref uint64) (idx uint32, gen uint32) {
	return uint32(ref >> 32), uint32(ref)
}

// compactMin is the minimum number of cancelled-but-unpopped queue
// entries before a sweep is worthwhile; below it the stale entries are
// cheaper to skip lazily at pop time than to compact eagerly.
const compactMin = 64

// Scheduler is the discrete-event engine. It is single-threaded and
// deterministic: events execute in (time, insertion) order, and all
// randomness flows through the seeded RNG it owns.
//
// The steady-state hot path is allocation-free: events are value
// entries in a slice-backed 4-ary heap, callbacks live in a recycled
// slot table, and cancellation is a generation-stamp bump — no
// per-event heap object, no live-event map.
//
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	q     []item // 4-ary min-heap by itemLess (queue.go)
	slots []slot
	free  []uint32

	now       Time
	seq       uint64
	pending   int // scheduled and not cancelled
	stale     int // cancelled entries still inside q
	rng       *rand.Rand
	stopped   bool
	processed uint64
	hook      func(at Time, src string, pending int)

	// curLP is the logical process currently executing (sharded mode
	// only; always nil in the legacy kernel). Events inherit it at
	// schedule time, RNG() resolves through it, and the observability
	// layer reads it to stamp emissions.
	curLP *LP

	// worker marks a scheduler owned by a worker shard of a ShardSet.
	// Barrier refuses to run on one: barrier operations belong to the
	// control plane (or the legacy single-threaded kernel).
	worker bool
}

// NewScheduler returns a scheduler whose random source is seeded with
// seed. Two schedulers built with the same seed drive identical runs.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// RNG exposes the current deterministic random source. In the legacy
// kernel this is the scheduler's single global stream; in sharded
// mode it is the private stream of the logical process currently
// executing, so draw sequences are independent of the shard count.
// All model components must draw randomness from here, never from
// package-level rand, to keep runs reproducible.
func (s *Scheduler) RNG() *rand.Rand {
	if s.curLP != nil {
		return s.curLP.rng
	}
	return s.rng
}

// CurLP reports the logical process currently executing, or nil in
// the legacy single-threaded kernel (and during unattributed phases).
func (s *Scheduler) CurLP() *LP { return s.curLP }

// Barrier runs fn in control-plane barrier context. On the legacy
// kernel this is a plain call: there is one thread and one partition.
// On the sharded kernel it is meaningful only on the control
// scheduler, whose events execute at epoch barriers with every shard
// worker parked — so fn may touch partition-owned state on any shard
// directly. Barrier is the ctl-side counterpart of ShardSet.WithLP:
// the explicit, auditable form of a control-plane→partition mutation
// (simlint inventories each Barrier body as a "barrier" crossing
// instead of reporting it). Calling it on a worker shard's scheduler
// panics — worker handlers must use the message path.
func (s *Scheduler) Barrier(fn func()) {
	if s.worker {
		panic("sim: Barrier on a worker-shard scheduler; cross-partition effects from shard handlers must use the message path")
	}
	fn()
}

// Processed reports how many events have executed so far. The resource
// model uses this as a proxy for simulator workload (Table I).
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are queued and not cancelled.
func (s *Scheduler) Pending() int { return s.pending }

// QueueLen reports the number of entries physically inside the event
// queue, which may exceed Pending by the number of cancelled entries
// not yet swept. The invariant QueueLen() == Pending()+stale is
// bounded: a compaction sweep runs whenever stale entries outnumber
// live ones (and exceed a small floor), so QueueLen never drifts past
// roughly twice Pending.
func (s *Scheduler) QueueLen() int { return len(s.q) }

// SetHook installs an observer invoked once per executed event with
// the event's time, its source label, and the queue depth after the
// pop. A nil hook disables observation. The observability layer's
// scheduler profiler attaches here.
func (s *Scheduler) SetHook(hook func(at Time, src string, pending int)) {
	s.hook = hook
}

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (run at the current instant, after already-queued events for it).
//
// Lifetime contract: fn outlives the scheduling frame, so it must not
// capture values it merely borrows — in particular a pooled
// *netsim.Packet received as a parameter, which its owner may recycle
// before the event fires. Capture an owned packet only to transfer
// ownership into the callback (which then releases or forwards it).
// The stalecapture analyzer enforces this statically.
func (s *Scheduler) Schedule(delay Time, fn func()) EventID {
	return s.ScheduleSrc(delay, "", fn)
}

// ScheduleSrc is Schedule with a source label attributing the event to
// a subsystem (e.g. "net.tx", "churn.epoch") for the profiler's
// per-source breakdown.
func (s *Scheduler) ScheduleSrc(delay Time, src string, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAtSrc(s.now+delay, src, fn)
}

// ScheduleAt queues fn to run at absolute time at. Times in the past are
// clamped to the current instant.
func (s *Scheduler) ScheduleAt(at Time, fn func()) EventID {
	return s.ScheduleAtSrc(at, "", fn)
}

// ScheduleAtSrc is ScheduleAt with a source label.
func (s *Scheduler) ScheduleAtSrc(at Time, src string, fn func()) EventID {
	if fn == nil {
		panic("sim: ScheduleAt with nil fn")
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1}) //simlint:allow allocfree(slab growth only when the free list is empty; steady state pops recycled slots and never allocates)
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.fn, sl.src, sl.live = fn, src, true
	sl.lp = s.curLP // events run as the LP that scheduled them
	s.pending++
	ref := packRef(idx, sl.gen)
	s.push(item{at: at, seq: s.seq, ref: ref})
	return EventID(ref)
}

// scheduleMsg queues a mailbox message's handler triple at absolute
// time at, attributed to (and executing as) LP dst. It is the
// barrier-insertion path of the sharded runtime: storing the handler
// and its two operands directly in the slot avoids a closure
// allocation per cross-shard packet.
func (s *Scheduler) scheduleMsg(at Time, dst *LP, h MsgHandler, a, b any) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1}) //simlint:allow allocfree(slab growth only when the free list is empty; steady state pops recycled slots and never allocates)
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.fn, sl.src, sl.live = nil, "sim.msg", true
	sl.lp, sl.h, sl.a, sl.b = dst, h, a, b
	s.pending++
	s.push(item{at: at, seq: s.seq, ref: packRef(idx, sl.gen)})
}

// NextEventTime reports the timestamp of the earliest live pending
// event, sweeping any cancelled entries off the top. The shard
// coordinator uses it between epochs to skip empty stretches of the
// epoch grid.
func (s *Scheduler) NextEventTime() (Time, bool) {
	for len(s.q) > 0 {
		if it := s.q[0]; s.refLive(it.ref) {
			return it.at, true
		}
		s.pop()
		s.stale--
	}
	return 0, false
}

// Cancel removes a scheduled event. Cancelling an event that already ran
// (or was already cancelled) is a no-op and reports false — including
// when the event's slot has since been recycled for a newer event: the
// generation stamp in the id no longer matches, so the newer tenant is
// untouched.
func (s *Scheduler) Cancel(id EventID) bool {
	idx, gen := unpackRef(uint64(id))
	if int(idx) >= len(s.slots) {
		return false
	}
	sl := &s.slots[idx]
	if !sl.live || sl.gen != gen {
		return false
	}
	s.releaseSlot(idx, sl)
	s.pending--
	s.stale++
	if s.stale > s.pending && s.stale >= compactMin {
		s.compact()
	}
	return true
}

// releaseSlot retires a slot's current tenant: the callback reference
// is dropped (so the closure is collectable immediately), the
// generation advances (invalidating outstanding ids and queue
// entries), and the slot returns to the free list.
func (s *Scheduler) releaseSlot(idx uint32, sl *slot) {
	sl.fn, sl.src, sl.live = nil, "", false
	sl.lp, sl.h, sl.a, sl.b = nil, nil, nil, nil
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1
	}
	s.free = append(s.free, idx) //simlint:allow allocfree(free-list capacity tracks the slot slab, so the push reuses spare capacity at steady state)
}

// refLive reports whether a queue entry still refers to its slot's
// current tenant.
func (s *Scheduler) refLive(ref uint64) bool {
	idx, gen := unpackRef(ref)
	sl := &s.slots[idx]
	return sl.live && sl.gen == gen
}

// compact sweeps cancelled entries out of the queue in O(n): live
// entries are filtered in place, keeping their original sequence
// numbers, and the heap is rebuilt bottom-up. itemLess is a total
// order, so the pop sequence — and therefore the run — is unchanged
// by the new layout.
func (s *Scheduler) compact() {
	n := 0
	for _, it := range s.q {
		if s.refLive(it.ref) {
			s.q[n] = it
			n++
		}
	}
	s.q = s.q[:n]
	for i := (n - 2) >> 2; i >= 0; i-- {
		s.siftDown(i, s.q[i])
	}
	s.stale = 0
}

// Stop halts the run loop after the currently-executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue drains, until an event at a time
// strictly greater than until would execute, or until Stop is called.
// On a Stop it returns ErrStopped; otherwise nil. The clock is left at
// the later of its current value and until when the horizon is reached.
func (s *Scheduler) Run(until Time) error {
	if err := s.run(until); err != nil {
		return err
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// RunAll executes events until the queue drains or Stop is called, with
// no time horizon. The clock is left at the time of the last executed
// event. Useful in tests.
func (s *Scheduler) RunAll() error {
	return s.run(Time(int64(^uint64(0) >> 1)))
}

func (s *Scheduler) run(until Time) error {
	s.stopped = false
	//simlint:allow allocfree(the deferred reset closure is built once per Run invocation, not per event)
	defer func() { s.curLP = nil }() // no attribution leaks out of the loop
	for len(s.q) > 0 {
		if s.stopped {
			return ErrStopped
		}
		it := s.q[0]
		idx, gen := unpackRef(it.ref)
		sl := &s.slots[idx]
		if !sl.live || sl.gen != gen {
			// Cancelled entry surfacing at the top: discard lazily,
			// regardless of horizon.
			s.pop()
			s.stale--
			continue
		}
		if it.at > until {
			break
		}
		s.pop()
		fn, src := sl.fn, sl.src
		lp, h, a, b := sl.lp, sl.h, sl.a, sl.b
		s.releaseSlot(idx, sl)
		s.pending--
		s.now = it.at
		s.processed++
		if s.hook != nil {
			s.hook(it.at, src, s.pending)
		}
		s.curLP = lp
		if fn != nil {
			fn()
		} else {
			h.HandleMsg(it.at, a, b)
		}
	}
	return nil
}
