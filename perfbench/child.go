package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"

	"ddosim/ddosim"
	"ddosim/internal/obs"
)

// childCmd is the first argument that makes the binary run one
// simulation in this process instead of orchestrating runs. Each run
// gets a process of its own so its peak resident memory is its own.
const childCmd = "child"

// sample is what one child run reports to the parent on stdout.
type sample struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	Err    string  `json:"err,omitempty"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
	Out       outputs `json:"out"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func childMain(args []string) int {
	fs := flag.NewFlagSet(childCmd, flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	traced := fs.Bool("traced", false, "install the span hooks and the CPU profiler")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", *name)
		return 2
	}
	smp, err := runOnce(w.config(*seed), *traced)
	if err != nil {
		smp.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(smp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// runOnce builds and runs one simulation, timing ddosim.New and
// Simulation.Run. A traced run also hooks every scheduler and
// profiles the CPU; the returned sample then carries Layers.
func runOnce(cfg ddosim.Config, traced bool) (sample, error) {
	var smp sample
	t0 := wallNow()
	s, err := ddosim.New(cfg)
	smp.SetupS = since(t0).Seconds()
	if err != nil {
		return smp, fmt.Errorf("setup: %w", err)
	}
	if !traced {
		t1 := wallNow()
		r, err := s.Run()
		smp.RunS = since(t1).Seconds()
		if err != nil {
			return smp, fmt.Errorf("run: %w", err)
		}
		smp.Out = outputsOf(r)
		return smp, nil
	}

	// Live heap after set-up: forcing a collection here perturbs the
	// traced run's GC pacing, which the tracing overhead then includes.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapAfterSetup := ms.HeapAlloc

	tr := installTracing(s)
	before := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return smp, fmt.Errorf("cpu profile: %w", err)
	}
	t1 := wallNow()
	r, err := s.Run()
	smp.RunS = since(t1).Seconds()
	pprof.StopCPUProfile()
	after := readRuntime()
	if err != nil {
		return smp, fmt.Errorf("run: %w", err)
	}
	smp.Out = outputsOf(r)
	cpu, err := moduleSelfSeconds(prof.Bytes())
	if err != nil {
		return smp, err
	}
	smp.Layers = layerMetrics(cfg, r, smp.RunS, tr, cpu, before, after)
	smp.Layers["runtime.heap_after_setup_mb"] = float64(heapAfterSetup) / (1 << 20)
	return smp, nil
}

// tracing is the set of hooks a traced run installs: one spanClock
// per scheduler and the profiler whose per-simulated-second samples
// give the phase split.
type tracing struct {
	shards []*spanClock // worker shards; the classic scheduler is shard 0
	ctl    *spanClock   // sharded kernel's control scheduler, else nil
	phases *obs.Profiler
}

// installTracing hooks s's schedulers. On the classic kernel the hook
// chains to the existing observability hook, whose profiler then also
// supplies the phase samples. On the sharded kernel each worker shard
// and the control scheduler get their own clock, written only by the
// goroutine that runs that scheduler; a spare profiler on the control
// scheduler, which fires at least once per simulated second (the
// recruitment watcher), supplies the phase samples.
func installTracing(s *ddosim.Simulation) *tracing {
	base := wallNow()
	now := func() int64 { return int64(since(base)) }
	set := s.ShardSet()
	if set == nil {
		c := newSpanClock(now, nil)
		hook := c.enter
		if prev := s.Obs().SchedulerHook(); prev != nil {
			hook = func(at ddosim.Time, src string, pending int) {
				c.enter(at, src, pending)
				prev(at, src, pending)
			}
		}
		s.Sched().SetHook(hook)
		return &tracing{shards: []*spanClock{c}, phases: s.Obs().Profiler()}
	}
	// A worker shard runs the events of [kL, (k+1)L) between two
	// barriers; the control scheduler runs an event at time t at the
	// first barrier at or after t.
	L := set.Lookahead()
	tr := &tracing{phases: obs.NewProfiler()}
	for i := 0; i < set.NumShards(); i++ {
		c := newSpanClock(now, func(at ddosim.Time) int64 { return int64(at / L) })
		set.Shard(i).Sched().SetHook(c.enter)
		tr.shards = append(tr.shards, c)
	}
	tr.ctl = newSpanClock(now, func(at ddosim.Time) int64 { return int64((at + L - 1) / L) })
	s.Sched().SetHook(func(at ddosim.Time, src string, pending int) {
		tr.ctl.enter(at, src, pending)
		tr.phases.OnEvent(at, src, pending)
	})
	return tr
}

// reportedShards is how many worker shards the per-shard metrics
// cover; the classic kernel reports its one scheduler as shard 0.
const reportedShards = 2

// runtimeStats are the Go runtime counters read around Simulation.Run.
type runtimeStats struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU               float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	var cpu float64
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		cpu = gc[0].Value.Float64()
	}
	return runtimeStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcCPU: cpu}
}

// layerMetrics assembles the traced run's per-layer metrics: counts
// from Results, span totals from the hooks, the phase split, the CPU
// profile's module split and the runtime counters.
func layerMetrics(cfg ddosim.Config, r *ddosim.Results, runS float64, tr *tracing,
	cpu map[string]float64, before, after runtimeStats) map[string]float64 {
	m := make(map[string]float64)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	clocks := tr.shards
	if tr.ctl != nil {
		clocks = append(append([]*spanClock(nil), clocks...), tr.ctl)
	}
	var events uint64
	var busyNS int64
	peak := 0
	for _, g := range spanGroups {
		m["span."+g+".self_s"], m["span."+g+".events"] = 0, 0
	}
	reports := make([]spanReport, len(clocks))
	for i, c := range clocks {
		rep := c.finish()
		reports[i] = rep
		events += rep.events
		busyNS += rep.busyNS
		peak = max(peak, rep.peakPending)
		for g, sp := range rep.bySource {
			m["span."+g+".self_s"] += float64(sp.selfNS) / 1e9
			m["span."+g+".events"] += float64(sp.events)
		}
	}
	m["sim.events"] = float64(events)
	m["sim.peak_pending"] = float64(peak)
	m["span.coverage"] = ratio(float64(busyNS)/1e9, runS)

	for i := 0; i < reportedShards; i++ {
		var ev, busy, wait float64
		if i < len(tr.shards) {
			rep := reports[i]
			ev, busy = float64(rep.events), float64(rep.busyNS)/1e9
			wait = runS - busy
		}
		p := fmt.Sprintf("shard.%d.", i)
		m[p+"events"], m[p+"busy_s"], m[p+"wait_s"] = ev, busy, wait
	}
	m["shard.ctl.events"], m["shard.ctl.busy_s"] = 0, 0
	if tr.ctl != nil {
		rep := reports[len(reports)-1]
		m["shard.ctl.events"], m["shard.ctl.busy_s"] = float64(rep.events), float64(rep.busyNS)/1e9
	}
	m["shard.hub_event_share"] = ratio(m["shard.0.events"], float64(events))

	m["phase.recruit_s"], m["phase.attack_s"], m["phase.drain_s"] =
		splitPhases(tr.phases.Samples(), r.AttackIssuedAt, cfg.AttackDuration)

	ns := r.NetStats
	m["netsim.tx_frames"] = float64(ns.TxFrames)
	m["netsim.drops"] = float64(ns.Drops)
	m["netsim.peak_queued"] = float64(ns.PeakQueued)
	m["netsim.flow_records"] = float64(r.Flows.Flows)
	m["netsim.delivered_ratio"] = 1 - ratio(float64(ns.Drops), float64(ns.TxFrames))

	m["exploit.attempts"] = float64(r.ExploitAttempts)
	m["exploit.hijacked"] = float64(r.Hijacked)
	m["exploit.crashed"] = float64(r.Crashed)
	m["exploit.infected"] = float64(r.Infected)
	m["exploit.infect_ratio"] = ratio(float64(r.Infected), float64(r.ExploitAttempts))
	m["botnet.registered"] = float64(r.BotsRegistered)
	m["botnet.at_command"] = float64(r.BotsAtCommand)

	m["obs.trace_events"] = float64(r.Obs.TraceEvents)
	m["obs.trace_dropped"] = float64(r.Obs.TraceDropped)

	m["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	m["runtime.mallocs_per_event"] = ratio(float64(after.mallocs-before.mallocs), float64(events))
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU

	var total float64
	for _, mod := range cpuModules {
		m["cpu."+mod+"_s"] = cpu[mod]
		total += cpu[mod]
	}
	m["cpu.total_s"] = total
	m["trace.run_s"] = runS
	return m
}
