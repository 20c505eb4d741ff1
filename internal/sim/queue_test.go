package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestHeapPopOrderMatchesSortOracle: for any interleaving of
// schedules, cancels and single-event runs, the scheduler's heap pops
// exactly what a stable sort of the live items by itemLess would pop.
// The op mix alternates between a growth phase and a cancel-heavy
// shrink phase, so both the lazy discard of stale entries at the top
// and the in-place compaction sweep run.
func TestHeapPopOrderMatchesSortOracle(t *testing.T) {
	compactions := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(1)
		var live []item // oracle: every scheduled, uncancelled, unrun item
		var ran []uint64
		for op := 0; op < 1500; op++ {
			schedP, cancelP := 12, 18 // of 20: 60% schedule, 30% cancel
			if op/300%2 == 1 {
				schedP, cancelP = 2, 16 // 10% schedule, 70% cancel
			}
			switch r := rng.Intn(20); {
			case r < schedP: // schedule; times never precede now (the clamp rule)
				at := s.Now() + Time(rng.Intn(977))
				var id EventID
				id = s.ScheduleAt(at, func() {
					ran = append(ran, uint64(id))
					s.Stop() // one event per RunAll
				})
				live = append(live, item{at: at, seq: s.seq, ref: uint64(id)})
			case r < cancelP && len(live) > 0: // cancel a random live event
				k := rng.Intn(len(live))
				before := s.QueueLen()
				if !s.Cancel(EventID(live[k].ref)) {
					return false
				}
				live = append(live[:k], live[k+1:]...)
				if s.QueueLen() < before {
					compactions++
				}
			default: // run exactly one live event
				sort.SliceStable(live, func(i, j int) bool { return itemLess(live[i], live[j]) })
				err := s.RunAll()
				if len(live) == 0 {
					if err != nil || len(ran) != 0 {
						return false
					}
					continue
				}
				if (err != nil && err != ErrStopped) || len(ran) != 1 || ran[0] != live[0].ref || s.Now() != live[0].at {
					return false
				}
				ran, live = ran[:0], live[1:]
			}
			if s.Pending() != len(live) || s.QueueLen() != len(live)+s.stale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if compactions == 0 {
		t.Fatal("workload never triggered a compaction sweep")
	}
}

// TestQueueLenPendingInvariant pins the drift fix: cancelled-but-
// unpopped entries are visible in QueueLen but never in Pending, and a
// compaction sweep bounds the gap once stale entries outnumber live
// ones.
func TestQueueLenPendingInvariant(t *testing.T) {
	s := NewScheduler(1)
	const n = 100
	ids := make([]EventID, n)
	for i := 0; i < n; i++ {
		ids[i] = s.Schedule(Time(i)*Millisecond, func() {})
	}
	if s.Pending() != n || s.QueueLen() != n {
		t.Fatalf("after schedule: Pending=%d QueueLen=%d, want %d/%d", s.Pending(), s.QueueLen(), n, n)
	}
	// Cancel 40: stale (40) stays below live (60), so no sweep runs and
	// the gap must be visible.
	for i := 0; i < 40; i++ {
		if !s.Cancel(ids[i]) {
			t.Fatalf("Cancel(%d) failed", i)
		}
	}
	if s.Pending() != 60 {
		t.Fatalf("Pending = %d, want 60", s.Pending())
	}
	if s.QueueLen() != 100 {
		t.Fatalf("QueueLen = %d, want 100 (stale entries not yet swept)", s.QueueLen())
	}
	// Cancel 25 more. The sweep fires at the 64th cancel (stale 64 >
	// live 36, and at the compactMin floor), leaving the 65th as the
	// only stale entry afterwards.
	for i := 40; i < 65; i++ {
		if !s.Cancel(ids[i]) {
			t.Fatalf("Cancel(%d) failed", i)
		}
	}
	if s.Pending() != 35 {
		t.Fatalf("Pending = %d, want 35", s.Pending())
	}
	if s.QueueLen() != 36 {
		t.Fatalf("QueueLen = %d, want 36 (compaction at 64th cancel + 1 stale)", s.QueueLen())
	}
	// The survivors still run, and both counters drain to zero.
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("after drain: Pending=%d QueueLen=%d", s.Pending(), s.QueueLen())
	}
	if got := s.Processed(); got != 35 {
		t.Fatalf("Processed = %d, want 35", got)
	}
}

// TestCompactionPreservesOrder: a sweep in the middle of a workload
// must not reorder survivors.
func TestCompactionPreservesOrder(t *testing.T) {
	s := NewScheduler(9)
	const n = 300
	var order []int
	ids := make([]EventID, n)
	for i := 0; i < n; i++ {
		i := i
		ids[i] = s.Schedule(Time(n-i)*Millisecond, func() { order = append(order, i) })
	}
	for i := 0; i < n; i += 2 { // cancel every even id → sweep triggers
		s.Cancel(ids[i])
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(order) != n/2 {
		t.Fatalf("ran %d, want %d", len(order), n/2)
	}
	// Delay was (n-i) ms, so survivors (odd i) must run in
	// descending-i order.
	for j := 1; j < len(order); j++ {
		if order[j] >= order[j-1] {
			t.Fatalf("order[%d..] = %d,%d not descending", j-1, order[j-1], order[j])
		}
	}
}

// TestCancelFiredAndReusedIDs pins the generation-stamp semantics: an
// id goes dead the moment its event fires or is cancelled, and stays
// dead even after its slot is recycled for newer events.
func TestCancelFiredAndReusedIDs(t *testing.T) {
	s := NewScheduler(1)

	fired := s.Schedule(Millisecond, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Cancel(fired) {
		t.Fatal("Cancel of already-fired id succeeded")
	}

	// The slot of `fired` is on the free list; this reuses it.
	ranB := false
	b := s.Schedule(Millisecond, func() { ranB = true })
	if b == fired {
		t.Fatal("reused slot issued an identical id (generation did not advance)")
	}
	if s.Cancel(fired) {
		t.Fatal("stale id cancelled the slot's new tenant")
	}

	// Cancel-then-reuse: cancelling the old id again must not kill c.
	if !s.Cancel(b) {
		t.Fatal("Cancel(b) failed")
	}
	ranC := false
	c := s.Schedule(Millisecond, func() { ranC = true })
	if s.Cancel(b) {
		t.Fatal("doubly-cancelled id reported success after slot reuse")
	}
	if s.Cancel(fired) {
		t.Fatal("ancient id still live")
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ranB {
		t.Fatal("cancelled event ran")
	}
	if !ranC {
		t.Fatal("live event did not run")
	}
	_ = c

	// The zero EventID (a Ticker's zero-value pending field) is never
	// issued and never cancels anything.
	if s.Cancel(0) {
		t.Fatal("Cancel(0) succeeded")
	}
}

// TestPropertyFIFOWithinTimestamp: events sharing a timestamp run in
// schedule order.
func TestPropertyFIFOWithinTimestamp(t *testing.T) {
	f := func(slots []uint8) bool {
		s := NewScheduler(3)
		var got []int
		for i, slot := range slots {
			i := i
			// Few distinct timestamps → many ties.
			s.Schedule(Time(slot%5)*Second, func() { got = append(got, i) })
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(got) != len(slots) {
			return false
		}
		// Expected order: stable sort by timestamp = for equal
		// timestamps, ascending schedule index.
		seen := make(map[uint8][]int)
		for _, i := range got {
			b := slots[i] % 5
			ns := seen[b]
			if len(ns) > 0 && ns[len(ns)-1] > i {
				return false
			}
			seen[b] = append(ns, i)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// nop is the benchmark callback: package-level so every Schedule call
// passes the same function value and the benchmark measures the
// kernel, not closure allocation.
func nop() {}

func BenchmarkSchedule(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(rng.Intn(1000))*Microsecond, nop)
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := s.Schedule(Time(rng.Intn(1000))*Microsecond, nop)
		s.Cancel(id)
	}
}

func BenchmarkRunDrain(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(rng.Intn(1000))*Microsecond, nop)
		if i%1024 == 1023 {
			if err := s.RunAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
}
