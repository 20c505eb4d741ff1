// Package obstest holds helpers for tests that measure a run through
// the obs time-series grid.
package obstest

import (
	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// Seconds samples a cumulative byte counter, typically a netsim Sink's
// RxBytes, on a 1 s obs.Windows ticker driven by sched: the grid a
// full run builds D_received from. The returned function reads the
// bytes counted in seconds [from, to); seconds not yet closed read as
// zero.
func Seconds(sched *sim.Scheduler, rxBytes func() uint64) func(from, to int) []float64 {
	w := obs.NewWindows(sim.Second)
	w.DeltaColumn("rx_bytes", func() float64 { return float64(rxBytes()) })
	tick := sim.NewTicker(sched, w.Width(), func() { w.Sample(sched.Now()) })
	tick.Source = "obs.windows"
	tick.Start()
	return func(from, to int) []float64 { return w.Values("rx_bytes", from, to) }
}
