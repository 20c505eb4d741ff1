// Command benchjson runs the repository's benchmark workloads at
// reduced scale and writes machine-readable BENCH_*.json files — the
// CI-friendly counterpart of `go test -bench`. Each file holds one
// suite: the end-to-end kill chain across fleet sizes (with the
// observability layer's own accounting of where kernel time went),
// the raw discrete-event kernel throughput, and the UDP-flood send
// path with flow accounting off vs on.
//
// Examples:
//
//	benchjson                 # write BENCH_killchain.json, BENCH_scheduler.json, BENCH_flood.json, BENCH_lint.json (+ _before pairs)
//	benchjson -out results/   # write them elsewhere
//	benchjson -devs 10,50,100 -seeds 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ddosim/ddosim"
	"ddosim/internal/lint"
	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// killChainRow is one end-to-end measurement: simulation outcomes plus
// the cost of producing them.
type killChainRow struct {
	Devs            int     `json:"devs"`
	Seed            int64   `json:"seed"`
	Shards          int     `json:"shards"`
	WallMS          float64 `json:"wall_ms"`
	SimSeconds      float64 `json:"sim_seconds"`
	EventsProcessed uint64  `json:"events_processed"`
	EventsPerSec    float64 `json:"events_per_wall_sec"`
	PeakPending     int     `json:"peak_pending"`
	WallNSPerSimSec int64   `json:"wall_ns_per_sim_sec"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
	Infected        int     `json:"infected"`
	DReceivedKbps   float64 `json:"d_received_kbps"`
	TraceEvents     int     `json:"trace_events"`
}

// schedRow is one kernel-throughput measurement: a self-rescheduling
// event chain with no simulation payload.
type schedRow struct {
	Events         int     `json:"events"`
	WallMS         float64 `json:"wall_ms"`
	EventsPerSec   float64 `json:"events_per_wall_sec"`
	NSPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// floodRow is one UDP-flood hot-path measurement: per-packet cost of
// the send path with flow accounting off vs on.
type floodRow struct {
	Packets         int     `json:"packets"`
	FlowsEnabled    bool    `json:"flows_enabled"`
	Shards          int     `json:"shards"`
	WallMS          float64 `json:"wall_ms"`
	NSPerPacket     float64 `json:"ns_per_packet"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	FlowsExported   uint64  `json:"flows_exported"`
}

type suite struct {
	Name      string `json:"name"`
	GoVersion string `json:"go_version"`
	Rows      any    `json:"rows"`
}

func run() error {
	var (
		outDir     = flag.String("out", ".", "directory to write BENCH_*.json into")
		devsList   = flag.String("devs", "10,30,50", "comma-separated fleet sizes for the kill-chain suite")
		seeds      = flag.Int("seeds", 1, "seeds per fleet size")
		shardsList = flag.String("shards", "0,1,2,4,8", "comma-separated shard counts for the kill-chain scaling curve (0 = classic kernel)")
		megaDevs   = flag.Int("mega-devs", 0, "when > 0, append one reduced-horizon kill-chain row at this fleet size per shard count (classic + max shards)")
	)
	flag.Parse()

	parseInts := func(list, name string) ([]int, error) {
		var out []int
		for _, s := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad -%s entry %q: %w", name, s, err)
			}
			out = append(out, n)
		}
		return out, nil
	}
	devCounts, err := parseInts(*devsList, "devs")
	if err != nil {
		return err
	}
	shardCounts, err := parseInts(*shardsList, "shards")
	if err != nil {
		return err
	}

	kill, err := benchKillChain(devCounts, *seeds, shardCounts)
	if err != nil {
		return err
	}
	if *megaDevs > 0 {
		mega, err := benchMegaKillChain(*megaDevs, shardCounts)
		if err != nil {
			return err
		}
		kill = append(kill, mega...)
	}
	if err := writeSuite(*outDir, "BENCH_killchain.json", "killchain", kill); err != nil {
		return err
	}
	sched, err := benchScheduler()
	if err != nil {
		return err
	}
	if err := writeSuite(*outDir, "BENCH_scheduler.json", "scheduler", sched); err != nil {
		return err
	}
	// The flood suite writes its own before/after pair: _before pins
	// the send path without flow accounting, the main file carries both
	// variants (and the sharded mailbox path) so the overhead is a
	// one-file diff.
	off, on := benchFlood(false, 0), benchFlood(true, 0)
	offSh, onSh := benchFlood(false, 2), benchFlood(true, 2)
	if err := writeSuite(*outDir, "BENCH_flood_before.json", "flood", []floodRow{off}); err != nil {
		return err
	}
	if err := writeSuite(*outDir, "BENCH_flood.json", "flood", []floodRow{off, on, offSh, onSh}); err != nil {
		return err
	}
	// The lint suite analyzes the module's own source, so it only runs
	// when benchjson is invoked from inside the repo; elsewhere the
	// other suites still work. Like the flood suite it writes a
	// before/after pair: _before times the suite without allocfree
	// (the previous analyzer set), the main file carries the full
	// suite plus one timing row per analyzer.
	if lintBefore, lintAfter, err := benchLint(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: skipping lint suite: %v\n", err)
	} else if err := writeSuite(*outDir, "BENCH_lint_before.json", "lint", lintBefore); err != nil {
		return err
	} else if err := writeSuite(*outDir, "BENCH_lint.json", "lint", lintAfter); err != nil {
		return err
	}
	return nil
}

// lintRow is one static-analysis measurement: the cost of loading and
// type-checking the module vs the cost of the analyzers themselves
// (the reachability engines — shard-confinement and
// allocation-reachability — dominate the latter). A row with an empty
// Analyzer times a whole suite; a named row times that analyzer run
// standalone on a fresh engine, so engine-backed siblings (pktown and
// stalecapture, shardconfine and crossnode) each carry their shared
// engine's full cost rather than splitting it.
type lintRow struct {
	Analyzer      string  `json:"analyzer,omitempty"`
	Packages      int     `json:"packages,omitempty"`
	Analyzers     int     `json:"analyzers"`
	Diags         int     `json:"diags"`
	InventoryRows int     `json:"inventory_rows,omitempty"`
	LoadMS        float64 `json:"load_ms,omitempty"`
	AnalyzeMS     float64 `json:"analyze_ms"`
	InventoryMS   float64 `json:"inventory_ms,omitempty"`
}

// benchLint runs the default suite over the whole module — the same
// work `go run ./cmd/simlint ./...` does in CI — plus the inventory
// build and one standalone timing per analyzer. The before slice
// times the suite with allocfree removed, pinning what the new
// analyzer costs on top of the previous set.
func benchLint() (before, after []lintRow, err error) {
	l, err := lint.NewLoader(".")
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	pkgs, err := l.LoadAll(".")
	if err != nil {
		return nil, nil, err
	}
	loadMS := float64(time.Since(start).Microseconds()) / 1000

	measure := func(suite []lint.Analyzer) (int, float64) {
		start := time.Now()
		diags := lint.Run(pkgs, suite)
		return len(diags), float64(time.Since(start).Microseconds()) / 1000
	}

	full := lint.DefaultSuite()
	nDiags, analyzeMS := measure(full)
	start = time.Now()
	inv := lint.BuildInventory(pkgs)
	inventoryMS := float64(time.Since(start).Microseconds()) / 1000

	after = []lintRow{{
		Packages:      len(pkgs),
		Analyzers:     len(full),
		Diags:         nDiags,
		InventoryRows: len(inv),
		LoadMS:        loadMS,
		AnalyzeMS:     analyzeMS,
		InventoryMS:   inventoryMS,
	}}
	// Per-analyzer rows: a fresh suite per measurement so memoized
	// engine Prepares never subsidize a later row.
	for i, a := range full {
		n, ms := measure([]lint.Analyzer{lint.DefaultSuite()[i]})
		after = append(after, lintRow{Analyzer: a.Name(), Analyzers: 1, Diags: n, AnalyzeMS: ms})
	}

	var legacy []lint.Analyzer
	for _, a := range lint.DefaultSuite() {
		if a.Name() != "allocfree" {
			legacy = append(legacy, a)
		}
	}
	n, ms := measure(legacy)
	before = []lintRow{{
		Packages:  len(pkgs),
		Analyzers: len(legacy),
		Diags:     n,
		LoadMS:    loadMS,
		AnalyzeMS: ms,
	}}
	return before, after, nil
}

// benchFlood measures the UDP flood send path — the hot loop behind
// every attack experiment — with and without flow accounting. One
// continuous src→dst stream, one padded datagram per 100 µs of sim
// time, mirroring internal/netsim's BenchmarkUDPFloodPath. With
// shards > 0 the same stream runs on the sharded kernel with src and
// dst on different shards, so every datagram crosses the mailbox.
func benchFlood(withFlows bool, shards int) floodRow {
	if shards > 0 {
		return benchFloodSharded(withFlows, shards)
	}
	const warmup, packets = 1_000, 200_000
	sched := sim.NewScheduler(1)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	var buf obs.FlowBuffer
	if withFlows {
		w.EnableFlows(netsim.FlowConfig{Sink: &buf})
	}
	src := star.AttachHost("src", 100*netsim.Mbps, sim.Millisecond, 64)
	dst := star.AttachHost("dst", 100*netsim.Mbps, sim.Millisecond, 64)
	if _, err := dst.BindUDP(80, nil); err != nil {
		panic(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		panic(err)
	}
	target := netip.AddrPortFrom(dst.Addr4(), 80)

	now := sched.Now()
	step := func() {
		sock.SendPadded(target, nil, 512)
		now += 100 * sim.Microsecond
		if err := sched.Run(now); err != nil {
			panic(err)
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	start := time.Now()
	mallocs0 := mallocCount()
	for i := 0; i < packets; i++ {
		step()
	}
	mallocs := mallocCount() - mallocs0
	wall := time.Since(start)

	row := floodRow{
		Packets:         packets,
		FlowsEnabled:    withFlows,
		WallMS:          float64(wall.Microseconds()) / 1000,
		NSPerPacket:     float64(wall.Nanoseconds()) / float64(packets),
		AllocsPerPacket: float64(mallocs) / float64(packets),
	}
	if ft := w.Flows(); ft != nil {
		ft.Stop()
		ft.FlushAll(sched.Now())
		row.FlowsExported = ft.Stats().Exported
	}
	return row
}

// benchFloodSharded is benchFlood on the sharded kernel: the sender is
// a self-rescheduling event on src's shard (a ShardSet runs once, so
// the stream is driven from inside the kernel rather than by stepping
// the scheduler), and the router sits on dst's shard so the uplink hop
// crosses shards. The whole run is timed; there is no separate warmup
// segment, which washes out over 200k packets.
func benchFloodSharded(withFlows bool, shards int) floodRow {
	const packets = 200_000
	const lookahead = sim.Millisecond // the link delay below
	set := sim.NewShardSet(1, shards, lookahead)
	w := netsim.New(set.CtlSched())
	w.EnableSharding(set)

	dstShard := 1 % shards
	w.SetNextLP(set.NewLP(dstShard))
	star := netsim.NewStar(w)
	w.SetNextLP(set.NewLP(0))
	src := star.AttachHost("src", 100*netsim.Mbps, lookahead, 64)
	w.SetNextLP(set.NewLP(dstShard))
	dst := star.AttachHost("dst", 100*netsim.Mbps, lookahead, 64)
	var buf obs.FlowBuffer
	if withFlows {
		w.EnableFlows(netsim.FlowConfig{Sink: &buf})
	}

	var sock *netsim.UDPSocket
	set.WithLP(dst.LP(), func() {
		if _, err := dst.BindUDP(80, nil); err != nil {
			panic(err)
		}
	})
	set.WithLP(src.LP(), func() {
		var err error
		sock, err = src.BindUDP(0, nil)
		if err != nil {
			panic(err)
		}
		target := netip.AddrPortFrom(dst.Addr4(), 80)
		sent := 0
		var tick func()
		tick = func() {
			sock.SendPadded(target, nil, 512)
			sent++
			if sent < packets {
				src.Sched().Schedule(100*sim.Microsecond, tick)
			}
		}
		src.Sched().Schedule(0, tick)
	})

	start := time.Now()
	mallocs0 := mallocCount()
	// 100 µs per send, plus slack for the last packets to drain.
	if err := set.Run(sim.Time(packets)*100*sim.Microsecond + sim.Second); err != nil {
		panic(err)
	}
	mallocs := mallocCount() - mallocs0
	wall := time.Since(start)

	row := floodRow{
		Packets:         packets,
		FlowsEnabled:    withFlows,
		Shards:          shards,
		WallMS:          float64(wall.Microseconds()) / 1000,
		NSPerPacket:     float64(wall.Nanoseconds()) / float64(packets),
		AllocsPerPacket: float64(mallocs) / float64(packets),
	}
	if withFlows {
		w.StopFlows()
		w.FlushFlows(set.Now())
		row.FlowsExported = w.FlowTableStatsTotal().Exported
	}
	return row
}

// runKillChain times one complete build-exploit-infect-flood-measure
// cycle for a prepared config, reading the kernel cost breakdown from
// the run's own profiler and the allocation rate from the runtime's
// mallocs counter.
func runKillChain(cfg ddosim.Config) (killChainRow, error) {
	s, err := ddosim.New(cfg)
	if err != nil {
		return killChainRow{}, err
	}
	start := time.Now()
	mallocs0 := mallocCount()
	r, err := s.Run()
	if err != nil {
		return killChainRow{}, err
	}
	mallocs := mallocCount() - mallocs0
	wall := time.Since(start)

	sum := r.Obs
	row := killChainRow{
		Devs:            cfg.NumDevs,
		Seed:            cfg.Seed,
		Shards:          cfg.Shards,
		WallMS:          float64(wall.Microseconds()) / 1000,
		SimSeconds:      cfg.SimDuration.Seconds(),
		EventsProcessed: sum.EventsDelivered,
		PeakPending:     sum.PeakPending,
		WallNSPerSimSec: sum.WallNSPerSimSec,
		Infected:        r.Infected,
		DReceivedKbps:   r.DReceivedKbps,
		TraceEvents:     sum.TraceEvents,
	}
	if sum.EventsDelivered > 0 {
		row.AllocsPerEvent = float64(mallocs) / float64(sum.EventsDelivered)
	}
	if secs := wall.Seconds(); secs > 0 {
		row.EventsPerSec = float64(sum.EventsDelivered) / secs
	}
	return row, nil
}

// benchKillChain sweeps the kill chain over (devs, seed, shard count).
// Shard count 0 is the classic single-queue kernel; counts >= 1 run the
// sharded parallel kernel, whose artifacts are byte-identical across
// the curve — only the wall-clock columns move.
func benchKillChain(devCounts []int, seeds int, shardCounts []int) ([]killChainRow, error) {
	var rows []killChainRow
	for _, devs := range devCounts {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			for _, shards := range shardCounts {
				cfg := ddosim.DefaultConfig(devs)
				cfg.Seed = seed
				cfg.Shards = shards
				cfg.SimDuration = 300 * ddosim.Second
				cfg.AttackDuration = 30
				cfg.RecruitTimeout = 60 * ddosim.Second

				row, err := runKillChain(cfg)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// benchMegaKillChain is the large-fleet variant: one reduced-horizon
// run per kernel (classic, and the largest sharded count from the
// curve) at fleets where the full 300 s horizon would take hours. The
// horizon is cut to 60 s with a 30 s recruit timeout — the attack
// order fires at the timeout regardless of recruitment progress, so
// the row still exercises the complete kill chain — and the
// time-series window is widened so windowed telemetry stays bounded.
func benchMegaKillChain(devs int, shardCounts []int) ([]killChainRow, error) {
	maxShards := 0
	for _, s := range shardCounts {
		if s > maxShards {
			maxShards = s
		}
	}
	kernels := []int{0}
	if maxShards > 0 {
		kernels = append(kernels, maxShards)
	}
	var rows []killChainRow
	for _, shards := range kernels {
		cfg := ddosim.DefaultConfig(devs)
		cfg.Seed = 1
		cfg.Shards = shards
		cfg.SimDuration = 60 * ddosim.Second
		cfg.AttackDuration = 10
		cfg.RecruitTimeout = 30 * ddosim.Second
		cfg.WindowSize = 5 * ddosim.Second
		if devs >= 100_000 {
			// Event volume is ~devs × horizon; at these fleets the 60 s
			// horizon costs hours on one core. 20 s still covers boot,
			// recruit-timeout attack order, and a 5 s flood window.
			cfg.SimDuration = 20 * ddosim.Second
			cfg.RecruitTimeout = 10 * ddosim.Second
			cfg.AttackDuration = 5
			cfg.WindowSize = 10 * ddosim.Second
		}

		row, err := runKillChain(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// mallocCount reads the runtime's cumulative heap-allocation counter.
func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// benchScheduler measures raw kernel throughput: a chain of
// self-rescheduling no-op events, the simulator's fundamental cost
// floor.
func benchScheduler() ([]schedRow, error) {
	var rows []schedRow
	for _, events := range []int{100_000, 1_000_000} {
		sched := sim.NewScheduler(1)
		left := events
		var tick func()
		tick = func() {
			left--
			if left > 0 {
				sched.Schedule(sim.Microsecond, tick)
			}
		}
		sched.Schedule(0, tick)
		start := time.Now()
		mallocs0 := mallocCount()
		if err := sched.RunAll(); err != nil {
			return nil, fmt.Errorf("scheduler bench, %d events: %w", events, err)
		}
		mallocs := mallocCount() - mallocs0
		wall := time.Since(start)
		row := schedRow{
			Events:         events,
			WallMS:         float64(wall.Microseconds()) / 1000,
			AllocsPerEvent: float64(mallocs) / float64(events),
		}
		if secs := wall.Seconds(); secs > 0 {
			row.EventsPerSec = float64(events) / secs
			row.NSPerEvent = float64(wall.Nanoseconds()) / float64(events)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func writeSuite(dir, file, name string, rows any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(suite{Name: name, GoVersion: runtime.Version(), Rows: rows}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
