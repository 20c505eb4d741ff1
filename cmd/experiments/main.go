// Command experiments regenerates the paper's evaluation artifacts:
// Figure 2 (received rate vs Devs × churn), Figure 3 (received rate
// vs attack duration), Table I (resource usage), and Figure 4
// (DDoSim vs the independent hardware model) — plus two extensions:
// recruit (infection rate vs attack vector and credential hygiene)
// and resilience (botnet performance vs fault-injection intensity).
//
// Examples:
//
//	experiments -exp all
//	experiments -exp fig2 -seeds 5
//	experiments -exp fig4 -quick
//	experiments -exp resilience -seeds 5
//	experiments -exp all -csv results/
//	experiments -exp fig2 -trace-dir traces/   # per-run Perfetto traces + metrics
//	experiments -exp recruit -flows-out flows/ -ts-out ts/   # labeled flow datasets + 1 s time series
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ddosim/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment: fig2|fig3|table1|fig4|recruit|resilience|p2p|all")
		seeds    = flag.Int("seeds", 3, "number of seeds to average over")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		csvDir   = flag.String("csv", "", "directory to write CSV files into (optional)")
		traceDir = flag.String("trace-dir", "", "directory to write per-run Chrome traces and metrics dumps into (optional)")
		flowsDir = flag.String("flows-out", "", "directory to write per-run labeled flow datasets (<label>.flows.csv) into (optional)")
		tsDir    = flag.String("ts-out", "", "directory to write per-run 1 s time series (<label>.ts.csv) into (optional)")
	)
	flag.Parse()

	opt := experiments.Options{
		Quick:    *quick,
		TraceDir: *traceDir,
		FlowsDir: *flowsDir,
		TSDir:    *tsDir,
	}
	for s := 1; s <= *seeds; s++ {
		opt.Seeds = append(opt.Seeds, int64(s))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("fig2") {
		ran = true
		rows, err := experiments.Fig2(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig2(rows))
		if err := writeCSV(*csvDir, "fig2.csv", fig2CSV(rows)); err != nil {
			return err
		}
	}
	if want("fig3") {
		ran = true
		rows, err := experiments.Fig3(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig3(rows))
		if err := writeCSV(*csvDir, "fig3.csv", fig3CSV(rows)); err != nil {
			return err
		}
	}
	if want("table1") {
		ran = true
		rows, err := experiments.Table1(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable1(rows))
		if err := writeCSV(*csvDir, "table1.csv", table1CSV(rows)); err != nil {
			return err
		}
	}
	if want("fig4") {
		ran = true
		rows, err := experiments.Fig4(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig4(rows))
		if err := writeCSV(*csvDir, "fig4.csv", fig4CSV(rows)); err != nil {
			return err
		}
	}
	if want("recruit") {
		ran = true
		rows, err := experiments.Recruitment(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderRecruitment(rows))
		if err := writeCSV(*csvDir, "recruit.csv", recruitCSV(rows)); err != nil {
			return err
		}
	}
	if want("resilience") {
		ran = true
		rows, err := experiments.Resilience(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderResilience(rows))
		if err := writeCSV(*csvDir, "resilience.csv", resilienceCSV(rows)); err != nil {
			return err
		}
	}
	if want("p2p") {
		ran = true
		rows, err := experiments.P2P(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderP2P(rows))
		if err := writeCSV(*csvDir, "p2p.csv", p2pCSV(rows)); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (fig2|fig3|table1|fig4|recruit|resilience|p2p|all)", *exp)
	}
	return nil
}

func writeCSV(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

func fig2CSV(rows []experiments.Fig2Row) string {
	var b strings.Builder
	b.WriteString("devs,churn,d_received_kbps\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%s,%.2f\n", r.Devs, r.Mode, r.DReceivedKbps)
	}
	return b.String()
}

func fig3CSV(rows []experiments.Fig3Row) string {
	var b strings.Builder
	b.WriteString("devs,duration_s,d_received_kbps\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%d,%.2f\n", r.Devs, r.DurationSecs, r.DReceivedKbps)
	}
	return b.String()
}

func table1CSV(rows []experiments.Table1Row) string {
	var b strings.Builder
	b.WriteString("devs,pre_attack_mem_gb,attack_mem_gb,attack_time\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%.2f,%.2f,%s\n", r.Devs, r.PreAttackMemGB, r.AttackMemGB, strconv.Quote(r.AttackTime))
	}
	return b.String()
}

func recruitCSV(rows []experiments.RecruitRow) string {
	var b strings.Builder
	b.WriteString("vector,weak_cred_fraction,infection_rate,mean_recruit_s\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.2f,%.4f,%.1f\n", r.Vector, r.WeakCredFraction, r.InfectionRate, r.MeanRecruitSecs)
	}
	return b.String()
}

func resilienceCSV(rows []experiments.ResilienceRow) string {
	var b strings.Builder
	b.WriteString("intensity,d_received_kbps,infection_rate,mean_recruit_s,faults_per_run,loader_redials\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%.2f,%.2f,%.4f,%.1f,%.1f,%.1f\n",
			r.Intensity, r.DReceivedKbps, r.InfectionRate, r.MeanRecruitSecs,
			r.FaultEvents, r.LoaderRedials)
	}
	return b.String()
}

func p2pCSV(rows []experiments.P2PRow) string {
	var b strings.Builder
	b.WriteString("family,intensity,infection_rate,dissem_latency_s,d_received_kbps,pre_takedown_kbps,post_takedown_kbps,sustain_ratio\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.2f,%.4f,%.2f,%.2f,%.2f,%.2f,%.4f\n",
			r.Family, r.Intensity, r.InfectionRate, r.DissemLatencySecs,
			r.DReceivedKbps, r.PreTakedownKbps, r.PostTakedownKbps, r.SustainRatio)
	}
	return b.String()
}

func fig4CSV(rows []experiments.Fig4Row) string {
	var b strings.Builder
	b.WriteString("devs,ddosim_kbps,hardware_kbps,relative_error\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%.2f,%.2f,%.4f\n", r.Devs, r.DDoSimKbps, r.HardwareKbps, r.RelativeError)
	}
	return b.String()
}
