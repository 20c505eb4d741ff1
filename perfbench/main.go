// Command perfbench is the repository's benchmark. It runs DDoSim
// kill-chain workloads through the public ddosim.New /
// Simulation.Run API, checks every run's simulated outputs, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"run_s": {"value": 2.61, "unit": "s"}, ...}}
//
// Every simulation runs in a child process of its own, so each run's
// peak resident memory is its own. With --trace 0 the benchmark
// repeats untraced runs for --seconds and reports the end-to-end
// metrics as medians; with --trace 1 it alternates untraced and
// traced runs and reports the per-layer metrics (README.md lists
// them and the end-to-end metric each should move).
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload flood --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childCmd {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// wallNow is the benchmark's only wall-clock reader. The simulator
// must never read the wall clock; the benchmark reads it around the
// simulator's public calls, outside anything simulated.
var wallNow = time.Now //simlint:allow wallclock(the benchmark times the simulator from outside; nothing simulated reads this clock)

// since reports the wall time elapsed since t.
func since(t time.Time) time.Duration { return wallNow().Sub(t) }

// endToEnd are the metrics of an untraced run: name, unit, and the
// per-run value whose median is reported.
var endToEnd = []struct {
	name, unit string
	of         func(sample) float64
}{
	{"run_s", "s", func(s sample) float64 { return s.RunS }},
	{"setup_s", "s", func(s sample) float64 { return s.SetupS }},
	{"peak_rss_mb", "MB", func(s sample) float64 { return s.PeakRSSMB }},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long to keep starting runs, per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	mf, _ := json.Marshal(hostManifest()) // a struct of strings and ints always marshals
	fmt.Printf("manifest %s\n", mf)

	budget := time.Duration(*seconds * float64(time.Second))
	final := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range todo {
		res := runWorkload(w, *seed, budget, *trace == 1)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	return 0
}

// runWorkload keeps starting child runs of w until budget is spent
// (at least minRounds rounds), checks each run's outputs, and returns
// the medians. A round is one untraced run, or with traced one
// untraced and one traced run.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool) result {
	const minRounds = 3
	res := result{Metrics: make(map[string]metricValue)}
	var ref *outputs
	var plain, tr []sample // successful untraced and traced runs

	runOne := func(traced bool) {
		res.Attempted++
		smp, err := spawn(w.name, seed, traced)
		if err == nil {
			err = checkOutputs(w, seed, smp.Out)
		}
		if err == nil && ref != nil && smp.Out != *ref {
			err = fmt.Errorf("outputs differ between runs of one seed: digest %s, first run %s", smp.Out.digest(), ref.digest())
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: run %d failed: %v\n", w.name, seed, res.Attempted, err)
			return
		}
		if ref == nil {
			ref = &smp.Out
		}
		if traced {
			tr = append(tr, smp)
		} else {
			plain = append(plain, smp)
		}
	}

	start := wallNow()
	for rounds := 1; ; rounds++ {
		runOne(false)
		if traced {
			runOne(true)
		}
		perRound := since(start) / time.Duration(rounds)
		if rounds >= minRounds && since(start)+perRound > budget {
			break
		}
	}
	res.Correct = res.Failed == 0

	fmt.Printf("workload %s  seed %d  runs %d  failed %d  failed_frac %.4f\n",
		w.name, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if ref != nil {
		o := *ref
		fmt.Printf("outputs  digest %s  infected %d/%d  at_command %d  d_received %.3f kbps  sink %d B  drops %d/%d  flows %d\n",
			o.digest(), o.Infected, o.Devs, o.AtCommand, o.DReceivedKbps, o.SinkBytes, o.Drops, o.TxFrames, o.FlowRecords)
	}
	fmt.Printf("%-32s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	report := func(name, unit string, xs []float64) {
		s := summarize(xs)
		fmt.Printf("%-32s %14.6g %14.6g %14.6g %4d  %s\n", name, s.median, s.q1, s.q3, s.n, unit)
		res.Metrics[name] = metricValue{Value: s.median, Unit: unit}
	}
	pick := func(ss []sample, f func(sample) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}
	if !traced {
		for _, m := range endToEnd {
			report(m.name, m.unit, pick(plain, m.of))
		}
		return res
	}

	var names []string
	if len(tr) > 0 {
		for k := range tr[0].Layers {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		report(k, layerUnit(k), pick(tr, func(s sample) float64 { return s.Layers[k] }))
	}
	report("trace.untraced_run_s", "s", pick(plain, func(s sample) float64 { return s.RunS }))
	report("trace.overhead_s", "s", []float64{res.Metrics["trace.run_s"].Value - res.Metrics["trace.untraced_run_s"].Value})
	depth := int(res.Metrics["sim.peak_pending"].Value)
	var ns []float64
	for i := 0; i < 5; i++ {
		ns = append(ns, dispatchNS(depth, 1_000_000, seed))
	}
	report("sim.dispatch_ns", "ns", ns)
	return res
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "share"),
		strings.HasSuffix(name, "coverage"), strings.HasSuffix(name, "per_event"):
		return "ratio"
	}
	return "count"
}

// spawn runs one simulation in a child process and returns its sample,
// with the child's peak resident memory filled in.
func spawn(name string, seed int64, traced bool) (sample, error) {
	self, err := os.Executable()
	if err != nil {
		return sample{}, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(self, childCmd, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-traced="+strconv.FormatBool(traced))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("child run: %w", err)
	}
	var smp sample
	if err := json.Unmarshal(out.Bytes(), &smp); err != nil {
		return sample{}, fmt.Errorf("child output: %w", err)
	}
	if smp.Err != "" {
		return smp, errors.New(smp.Err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return smp, errors.New("no resource usage for the child process")
	}
	smp.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
	return smp, nil
}
