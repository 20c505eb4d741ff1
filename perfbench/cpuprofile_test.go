package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ddosim/internal/netsim.(*Node).Send":        "netsim",
		"ddosim/internal/sim.(*Scheduler).run":       "sim",
		"ddosim/internal/binaries/connman.parseDNS":  "binaries",
		"ddosim/internal/lint.Run":                   "other",
		"runtime.mallocgc":                           "runtime",
		"runtime/internal/atomic.Load":               "runtime",
		"internal/runtime/maps.(*Map).getWithKey":    "runtime",
		"main.(*spanClock).enter":                    "bench",
		"sort.Slice":                                 "other",
		"slices.SortFunc[go.shape.struct { a/b.c }]": "other",
		"time.Now": "other",
		"":         "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestModuleSelfSecondsDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	mods, err := moduleSelfSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for m, s := range mods {
		if s < 0 {
			t.Errorf("module %s: negative time %v", m, s)
		}
		total += s
	}
	// The test binary's package is not main, so the spin loop counts
	// as "other"; it should hold most of the ~0.3 s profiled.
	if mods["other"] < 0.1 || total > 1 {
		t.Errorf("modules = %v (total %.2f s), want most of 0.3 s under other", mods, total)
	}
}

func TestModuleSelfSecondsRejectsGarbage(t *testing.T) {
	if _, err := moduleSelfSeconds([]byte("not a profile")); err == nil {
		t.Error("garbage input decoded without error")
	}
}
