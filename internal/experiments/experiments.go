// Package experiments regenerates every table and figure of the
// paper's evaluation (§IV): Fig. 2 (received rate vs fleet size ×
// churn), Fig. 3 (received rate vs attack duration), Table I
// (resource usage), and Fig. 4 (DDoSim vs hardware validation). The
// cmd/experiments binary and the repository benchmarks both drive
// this package.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ddosim/internal/churn"
	"ddosim/internal/core"
	"ddosim/internal/hardware"
)

// Options tunes a regeneration run.
type Options struct {
	// Seeds to average over; defaults to {1, 2, 3}.
	Seeds []int64
	// Quick shrinks sweeps for smoke tests and benchmarks.
	Quick bool
	// TraceDir, when non-empty, writes per-run observability
	// artifacts into the directory: <label>.trace.json (Chrome
	// trace_event, open in Perfetto) and <label>.metrics.prom
	// (Prometheus text dump), one pair per experiment point × seed.
	TraceDir string
	// FlowsDir, when non-empty, writes <label>.flows.csv — the run's
	// labeled flow-record dataset — per experiment point × seed.
	FlowsDir string
	// TSDir, when non-empty, writes <label>.ts.csv — the run's 1 s
	// time-series metrics — per experiment point × seed.
	TSDir string
}

func (o Options) seeds() []int64 {
	if len(o.Seeds) > 0 {
		return o.Seeds
	}
	return []int64{1, 2, 3}
}

// dumpObs writes one finished run's observability artifacts: trace +
// metrics under o.TraceDir, the labeled flow dataset under o.FlowsDir,
// and the windowed time series under o.TSDir. Unset directories are
// skipped.
func (o Options) dumpObs(label string, s *core.Simulation) error {
	if o.TraceDir != "" {
		if err := writeArtifact(o.TraceDir, label+".trace.json", s.Obs().Trace.WriteChromeTrace); err != nil {
			return err
		}
		if err := writeArtifact(o.TraceDir, label+".metrics.prom", s.Obs().Metrics.WritePrometheus); err != nil {
			return err
		}
	}
	if o.FlowsDir != "" {
		if err := writeArtifact(o.FlowsDir, label+".flows.csv", s.Flows().WriteCSV); err != nil {
			return err
		}
	}
	if o.TSDir != "" {
		if err := writeArtifact(o.TSDir, label+".ts.csv", s.Windows().WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// writeArtifact creates dir/name and streams write into it.
func writeArtifact(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runAveraged(cfg core.Config, label string, opt Options) (float64, *core.Results, error) {
	var sum float64
	var last *core.Results
	seeds := opt.seeds()
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		s, err := core.New(c)
		if err != nil {
			return 0, nil, err
		}
		r, err := s.Run()
		if err != nil {
			return 0, nil, err
		}
		if err := opt.dumpObs(fmt.Sprintf("%s-s%d", label, seed), s); err != nil {
			return 0, nil, err
		}
		sum += r.DReceivedKbps
		last = r
	}
	return sum / float64(len(seeds)), last, nil
}

// --- Figure 2 ---

// Fig2Row is one point of Fig. 2.
type Fig2Row struct {
	Devs          int
	Mode          churn.Mode
	DReceivedKbps float64
}

// Fig2 sweeps fleet size × churn mode with a 100 s attack.
func Fig2(opt Options) ([]Fig2Row, error) {
	devCounts := []int{10, 30, 50, 70, 90, 110, 130, 150}
	if opt.Quick {
		devCounts = []int{10, 30, 50}
	}
	modes := []churn.Mode{churn.None, churn.Static, churn.Dynamic}
	type job struct {
		devs int
		mode churn.Mode
	}
	var jobs []job
	for _, devs := range devCounts {
		for _, mode := range modes {
			jobs = append(jobs, job{devs: devs, mode: mode})
		}
	}
	return parallelMap(len(jobs), func(i int) (Fig2Row, error) {
		j := jobs[i]
		cfg := core.DefaultConfig(j.devs)
		cfg.Churn = j.mode
		avg, _, err := runAveraged(cfg, fmt.Sprintf("fig2-d%d-%s", j.devs, j.mode), opt)
		if err != nil {
			return Fig2Row{}, fmt.Errorf("fig2 devs=%d mode=%v: %w", j.devs, j.mode, err)
		}
		return Fig2Row{Devs: j.devs, Mode: j.mode, DReceivedKbps: avg}, nil
	})
}

// RenderFig2 prints the figure as an ASCII table, one series per
// churn mode.
func RenderFig2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Figure 2: average received data rate (kbps) vs number of Devs\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s\n", "Devs", "no churn", "static churn", "dynamic churn")
	byDevs := make(map[int]map[churn.Mode]float64)
	var order []int
	for _, r := range rows {
		m, ok := byDevs[r.Devs]
		if !ok {
			m = make(map[churn.Mode]float64)
			byDevs[r.Devs] = m
			order = append(order, r.Devs)
		}
		m[r.Mode] = r.DReceivedKbps
	}
	for _, devs := range order {
		m := byDevs[devs]
		fmt.Fprintf(&b, "%-8d %14.1f %14.1f %14.1f\n",
			devs, m[churn.None], m[churn.Static], m[churn.Dynamic])
	}
	return b.String()
}

// --- Figure 3 ---

// Fig3Row is one point of Fig. 3.
type Fig3Row struct {
	Devs          int
	DurationSecs  int
	DReceivedKbps float64
}

// Fig3 sweeps attack duration per fleet size (no churn).
func Fig3(opt Options) ([]Fig3Row, error) {
	devCounts := []int{50, 100, 150, 200}
	durations := []int{150, 200, 300}
	if opt.Quick {
		devCounts = []int{50, 100}
		durations = []int{150, 300}
	}
	type job struct {
		devs, dur int
	}
	var jobs []job
	for _, devs := range devCounts {
		for _, dur := range durations {
			jobs = append(jobs, job{devs: devs, dur: dur})
		}
	}
	return parallelMap(len(jobs), func(i int) (Fig3Row, error) {
		j := jobs[i]
		cfg := core.DefaultConfig(j.devs)
		cfg.AttackDuration = j.dur
		avg, _, err := runAveraged(cfg, fmt.Sprintf("fig3-d%d-dur%d", j.devs, j.dur), opt)
		if err != nil {
			return Fig3Row{}, fmt.Errorf("fig3 devs=%d dur=%d: %w", j.devs, j.dur, err)
		}
		return Fig3Row{Devs: j.devs, DurationSecs: j.dur, DReceivedKbps: avg}, nil
	})
}

// RenderFig3 prints the figure as an ASCII table, one row per fleet
// size.
func RenderFig3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: average received data rate (kbps) vs attack duration\n")
	byDevs := make(map[int]map[int]float64)
	var devOrder []int
	durSet := make(map[int]bool)
	var durs []int
	for _, r := range rows {
		m, ok := byDevs[r.Devs]
		if !ok {
			m = make(map[int]float64)
			byDevs[r.Devs] = m
			devOrder = append(devOrder, r.Devs)
		}
		m[r.DurationSecs] = r.DReceivedKbps
		if !durSet[r.DurationSecs] {
			durSet[r.DurationSecs] = true
			durs = append(durs, r.DurationSecs)
		}
	}
	fmt.Fprintf(&b, "%-8s", "Devs")
	for _, d := range durs {
		fmt.Fprintf(&b, " %11ds", d)
	}
	b.WriteByte('\n')
	for _, devs := range devOrder {
		fmt.Fprintf(&b, "%-8d", devs)
		for _, d := range durs {
			fmt.Fprintf(&b, " %12.1f", byDevs[devs][d])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// --- Table I ---

// Table1Row is one row of Table I.
type Table1Row struct {
	Devs           int
	PreAttackMemGB float64
	AttackMemGB    float64
	AttackTime     string
	AttackTimeSecs float64
}

// Table1 sweeps fleet size with the 100 s attack and reports the
// resource model's estimates.
func Table1(opt Options) ([]Table1Row, error) {
	devCounts := []int{20, 40, 70, 100, 130}
	if opt.Quick {
		devCounts = []int{20, 40}
	}
	return parallelMap(len(devCounts), func(i int) (Table1Row, error) {
		devs := devCounts[i]
		cfg := core.DefaultConfig(devs)
		cfg.Seed = opt.seeds()[0]
		s, err := core.New(cfg)
		if err != nil {
			return Table1Row{}, fmt.Errorf("table1 devs=%d: %w", devs, err)
		}
		r, err := s.Run()
		if err != nil {
			return Table1Row{}, fmt.Errorf("table1 devs=%d: %w", devs, err)
		}
		if err := opt.dumpObs(fmt.Sprintf("table1-d%d-s%d", devs, cfg.Seed), s); err != nil {
			return Table1Row{}, fmt.Errorf("table1 devs=%d: %w", devs, err)
		}
		return Table1Row{
			Devs:           devs,
			PreAttackMemGB: r.Usage.PreAttackMemGB,
			AttackMemGB:    r.Usage.AttackMemGB,
			AttackTime:     r.Usage.AttackTimeMMSS(),
			AttackTimeSecs: r.Usage.AttackTimeSecs,
		}, nil
	})
}

// RenderTable1 prints the table in the paper's format.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table I: hardware resources consumed by DDoSim\n")
	fmt.Fprintf(&b, "%-6s %20s %16s %18s\n", "Devs", "Pre-attack Mem (GB)", "Attack Mem (GB)", "Attack Time (m:ss)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %20.2f %16.2f %18s\n", r.Devs, r.PreAttackMemGB, r.AttackMemGB, r.AttackTime)
	}
	return b.String()
}

// --- Figure 4 ---

// Fig4Row is one point of Fig. 4.
type Fig4Row struct {
	Devs          int
	DDoSimKbps    float64
	HardwareKbps  float64
	RelativeError float64
}

// Fig4 runs the validation sweep: 1–19 Devs through DDoSim and
// through the independent hardware model, identical settings.
func Fig4(opt Options) ([]Fig4Row, error) {
	devCounts := make([]int, 0, 19)
	step := 2
	if opt.Quick {
		step = 6
	}
	for d := 1; d <= 19; d += step {
		devCounts = append(devCounts, d)
	}
	return parallelMap(len(devCounts), func(i int) (Fig4Row, error) {
		devs := devCounts[i]
		var ddosimSum, hwSum float64
		for _, seed := range opt.seeds() {
			cfg := core.DefaultConfig(devs)
			cfg.Seed = seed
			s, err := core.New(cfg)
			if err != nil {
				return Fig4Row{}, fmt.Errorf("fig4 devs=%d: %w", devs, err)
			}
			// The validation deploys the *same* devices on both
			// substrates: reuse DDoSim's sampled rates for the Pis.
			rates := make([]int64, 0, devs)
			for _, d := range s.Devs() {
				rates = append(rates, int64(d.Rate()))
			}
			r, err := s.Run()
			if err != nil {
				return Fig4Row{}, fmt.Errorf("fig4 devs=%d: %w", devs, err)
			}
			if err := opt.dumpObs(fmt.Sprintf("fig4-d%d-s%d", devs, seed), s); err != nil {
				return Fig4Row{}, fmt.Errorf("fig4 devs=%d: %w", devs, err)
			}
			ddosimSum += r.DReceivedKbps

			hw := hardware.DefaultConfig(devs)
			hw.Seed = seed
			hw.RatesBps = rates
			hwSum += hardware.Run(hw).AvgReceivedKbps
		}
		ddosimAvg := ddosimSum / float64(len(opt.seeds()))
		hwAvg := hwSum / float64(len(opt.seeds()))
		rel := 0.0
		if hwAvg > 0 {
			rel = (ddosimAvg - hwAvg) / hwAvg
		}
		return Fig4Row{
			Devs: devs, DDoSimKbps: ddosimAvg, HardwareKbps: hwAvg, RelativeError: rel,
		}, nil
	})
}

// RenderFig4 prints the validation comparison.
func RenderFig4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4: real-world (hardware model) vs DDoSim\n")
	fmt.Fprintf(&b, "%-6s %14s %16s %10s\n", "Devs", "DDoSim (kbps)", "hardware (kbps)", "rel.err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %14.1f %16.1f %9.1f%%\n", r.Devs, r.DDoSimKbps, r.HardwareKbps, 100*r.RelativeError)
	}
	return b.String()
}
