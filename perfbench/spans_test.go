package main

import (
	"testing"

	"ddosim/ddosim"
)

// fakeClock returns the given wall times in order, one per call.
func fakeClock(ts ...int64) func() int64 {
	return func() int64 {
		t := ts[0]
		ts = ts[1:]
		return t
	}
}

func TestSourceGroup(t *testing.T) {
	for src, want := range map[string]string{
		"":              "unlabeled",
		"net.tx":        "net.tx",
		"net.prop":      "net.prop",
		"loader.retry":  "loader",
		"churn.epoch":   "churn",
		"p2p.poll":      "p2p",
		"dht.timeout":   "dht",
		"core.cmdwave":  "other",
		"faults":        "other",
		"sim.msg":       "sim.msg",
		"obs.windows":   "obs.windows",
		"loaderish.foo": "other",
	} {
		if got := sourceGroup(src); got != want {
			t.Errorf("sourceGroup(%q) = %q, want %q", src, got, want)
		}
	}
	for _, g := range spanGroups {
		if sourceGroup(g) != g && g != "loader" && g != "churn" && g != "p2p" && g != "dht" {
			t.Errorf("report group %q does not map to itself", g)
		}
	}
}

func TestSpanSelfTimeAttribution(t *testing.T) {
	// Hook entries at wall 10, 15, 35, 40, 70: a, b, a, "", a.
	c := newSpanClock(fakeClock(10, 15, 35, 40, 70), nil)
	c.enter(0, "net.tx", 3)
	c.enter(0, "net.prop", 7)
	c.enter(ddosim.Second, "net.tx", 2)
	c.enter(ddosim.Second, "", 1)
	c.enter(2*ddosim.Second, "net.tx", 0)
	rep := c.finish()

	// Observed spans: tx [10,15) and [35,40), prop [15,35), unlabeled
	// [40,70). The last tx span is cut and filled with tx's mean (5).
	want := map[string]srcSpan{
		"net.tx":    {events: 3, selfNS: 5 + 5 + 5, cut: 1},
		"net.prop":  {events: 1, selfNS: 20},
		"unlabeled": {events: 1, selfNS: 30},
	}
	if len(rep.bySource) != len(want) {
		t.Fatalf("groups = %v, want %v", rep.bySource, want)
	}
	for g, w := range want {
		if got := rep.bySource[g]; got != w {
			t.Errorf("%s: %+v, want %+v", g, got, w)
		}
	}
	// The observed spans tile the interval from the first hook entry to
	// the last one; busy adds the estimated last span.
	if rep.busyNS != (70-10)+5 {
		t.Errorf("busy = %d, want %d", rep.busyNS, 70-10+5)
	}
	if rep.events != 5 || rep.peakPending != 7 {
		t.Errorf("events %d peak %d, want 5 and 7", rep.events, rep.peakPending)
	}
}

func TestSpanCutAtEpochBoundary(t *testing.T) {
	// Epochs of one simulated second: the span that ends in a barrier
	// wait (wall 20 → 100) is not charged; it takes its group's mean.
	epoch := func(at ddosim.Time) int64 { return int64(at / ddosim.Second) }
	c := newSpanClock(fakeClock(10, 20, 100, 104), epoch)
	c.enter(0, "net.tx", 0)
	c.enter(500*ddosim.Millisecond, "net.prop", 0)
	c.enter(ddosim.Second, "net.tx", 0)
	c.enter(ddosim.Second, "net.prop", 0)
	rep := c.finish()
	tx, prop := rep.bySource["net.tx"], rep.bySource["net.prop"]
	// tx: [10,20) and [100,104) observed. prop: both spans cut (the
	// first at the barrier, the second at the end of the run), so
	// prop takes the scheduler-wide mean (10+4)/2 = 7 twice.
	if tx.selfNS != 14 || tx.cut != 0 {
		t.Errorf("tx = %+v, want 14 ns and no cut span", tx)
	}
	if prop.selfNS != 14 || prop.cut != 2 {
		t.Errorf("prop = %+v, want 14 ns from 2 cut spans", prop)
	}
	if rep.busyNS != 28 {
		t.Errorf("busy = %d, want 28 (the 80 ns barrier wait excluded)", rep.busyNS)
	}
}

// smallTracedRun runs a six-dev kill chain with tracing on.
func smallTracedRun(t *testing.T, shards int) sample {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	cfg := ddosim.DefaultConfig(6)
	cfg.Shards = shards
	cfg.SimDuration = 40 * ddosim.Second
	cfg.RecruitTimeout = 20 * ddosim.Second
	cfg.AttackDuration = 5
	smp, err := runOnce(cfg, true)
	if err != nil {
		t.Fatalf("shards %d: %v", shards, err)
	}
	return smp
}

func TestTracedRunAccountsEveryEvent(t *testing.T) {
	for _, shards := range []int{0, 2} {
		smp := smallTracedRun(t, shards)
		m := smp.Layers
		var spanEvents float64
		for _, g := range spanGroups {
			spanEvents += m["span."+g+".events"]
		}
		shardEvents := m["shard.0.events"] + m["shard.1.events"] + m["shard.ctl.events"]
		if m["sim.events"] == 0 || spanEvents != m["sim.events"] || shardEvents != m["sim.events"] {
			t.Errorf("shards %d: sim.events %v, span events %v, shard events %v",
				shards, m["sim.events"], spanEvents, shardEvents)
		}
		if c := m["span.coverage"]; !(c > 0) {
			t.Errorf("shards %d: span.coverage = %v", shards, c)
		}
		if m["exploit.infected"] != float64(smp.Out.Infected) || m["trace.run_s"] != smp.RunS {
			t.Errorf("shards %d: layer counts disagree with the outputs", shards)
		}
	}
}
