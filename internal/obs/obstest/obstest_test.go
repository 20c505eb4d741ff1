package obstest

import (
	"testing"

	"ddosim/internal/sim"
)

func TestSecondsBuckets(t *testing.T) {
	sched := sim.NewScheduler(1)
	var rx uint64
	secs := Seconds(sched, func() uint64 { return rx })
	sched.ScheduleAt(500*sim.Millisecond, func() { rx += 100 })
	sched.ScheduleAt(900*sim.Millisecond, func() { rx += 50 })
	// A byte logged exactly at second 2 lands in row 2 when, as with
	// packet arrivals in a run, it is queued after the ticker queued its
	// second-2 sample (at second 1); same-instant events run in FIFO order.
	sched.ScheduleAt(1500*sim.Millisecond, func() {
		sched.ScheduleAt(2*sim.Second, func() { rx += 25 })
	})
	if err := sched.Run(4 * sim.Second); err != nil {
		t.Fatal(err)
	}
	got := secs(0, 3)
	if got[0] != 150 {
		t.Fatalf("second 0 = %v", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("second 1 = %v", got[1])
	}
	if got[2] != 25 {
		t.Fatalf("second 2 = %v", got[2])
	}
	var total float64
	for _, b := range secs(0, 10) {
		total += b
	}
	if total != 175 {
		t.Fatalf("total = %v", total)
	}
}
