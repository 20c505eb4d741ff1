package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/obs"
)

var quickOpt = Options{Seeds: []int64{1}, Quick: true}

func TestFig2QuickShape(t *testing.T) {
	rows, err := Fig2(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 dev counts x 3 modes
		t.Fatalf("rows = %d", len(rows))
	}
	// D_received grows with Devs within each mode.
	byMode := make(map[churn.Mode][]float64)
	for _, r := range rows {
		byMode[r.Mode] = append(byMode[r.Mode], r.DReceivedKbps)
	}
	for mode, series := range byMode {
		for i := 1; i < len(series); i++ {
			if series[i] <= series[i-1] {
				t.Fatalf("mode %v: series not increasing: %v", mode, series)
			}
		}
	}
	out := RenderFig2(rows)
	if !strings.Contains(out, "no churn") || !strings.Contains(out, "dynamic churn") {
		t.Fatalf("render = %q", out)
	}
}

func TestFig3QuickShape(t *testing.T) {
	rows, err := Fig3(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 dev counts x 2 durations
		t.Fatalf("rows = %d", len(rows))
	}
	// For each fleet size, longer attacks yield a higher average
	// received rate (the paper's Fig. 3 trend).
	byDevs := make(map[int]map[int]float64)
	for _, r := range rows {
		if byDevs[r.Devs] == nil {
			byDevs[r.Devs] = make(map[int]float64)
		}
		byDevs[r.Devs][r.DurationSecs] = r.DReceivedKbps
	}
	for devs, m := range byDevs {
		if m[300] <= m[150] {
			t.Fatalf("devs=%d: 300s (%.1f) not above 150s (%.1f)", devs, m[300], m[150])
		}
	}
	if RenderFig3(rows) == "" {
		t.Fatal("empty render")
	}
}

func TestTable1QuickShape(t *testing.T) {
	rows, err := Table1(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AttackMemGB <= r.PreAttackMemGB {
			t.Fatalf("devs=%d: attack mem not above pre-attack: %+v", r.Devs, r)
		}
		if r.AttackTimeSecs <= 100 {
			t.Fatalf("devs=%d: attack time %.0f not inflated", r.Devs, r.AttackTimeSecs)
		}
	}
	if rows[1].PreAttackMemGB <= rows[0].PreAttackMemGB {
		t.Fatal("pre-attack memory not monotone in Devs")
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Pre-attack Mem") {
		t.Fatalf("render = %q", out)
	}
}

func TestRecruitmentQuick(t *testing.T) {
	rows, err := Recruitment(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // memory + credentials at {1.0, 0.0}
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].InfectionRate != 1.0 {
		t.Fatalf("memory-error rate = %v", rows[0].InfectionRate)
	}
	// Fully weak fleet recruits; fully strong fleet does not.
	if rows[1].InfectionRate != 1.0 {
		t.Fatalf("credentials@100%% rate = %v", rows[1].InfectionRate)
	}
	if rows[2].InfectionRate != 0 {
		t.Fatalf("credentials@0%% rate = %v", rows[2].InfectionRate)
	}
	// Memory-error recruits much faster than scanning.
	if rows[0].MeanRecruitSecs >= rows[1].MeanRecruitSecs {
		t.Fatalf("memory %.1fs not faster than credentials %.1fs",
			rows[0].MeanRecruitSecs, rows[1].MeanRecruitSecs)
	}
	out := RenderRecruitment(rows)
	if !strings.Contains(out, "memory-error") || !strings.Contains(out, "credentials") {
		t.Fatalf("render = %q", out)
	}
}

func TestDumpObsWritesTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Seeds:    []int64{1},
		Quick:    true,
		FlowsDir: filepath.Join(dir, "flows"),
		TSDir:    filepath.Join(dir, "ts"),
	}
	rows, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	flows, err := os.ReadFile(filepath.Join(opt.FlowsDir, "table1-d20-s1.flows.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(flows), obs.FlowCSVHeader+"\n") {
		t.Fatalf("flow csv header = %q", strings.SplitN(string(flows), "\n", 2)[0])
	}
	if !strings.Contains(string(flows), ",attack,") {
		t.Fatal("flow dataset carries no attack-labeled rows")
	}
	ts, err := os.ReadFile(filepath.Join(opt.TSDir, "table1-d20-s1.ts.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(ts), "window_start_s,infected,") {
		t.Fatalf("ts csv header = %q", strings.SplitN(string(ts), "\n", 2)[0])
	}
	// The 1 s grid over the 600 s horizon yields 600 rows plus the header.
	if n := strings.Count(string(ts), "\n"); n != 601 {
		t.Fatalf("ts line count = %d, want 601 (600 one-second rows + header)", n)
	}
}

func TestFig4QuickAgreement(t *testing.T) {
	rows, err := Fig4(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DDoSimKbps <= 0 || r.HardwareKbps <= 0 {
			t.Fatalf("devs=%d: empty measurement %+v", r.Devs, r)
		}
		if math.Abs(r.RelativeError) > 0.25 {
			t.Fatalf("devs=%d: substrates diverge by %.0f%%", r.Devs, 100*r.RelativeError)
		}
	}
	// Both curves increase with Devs.
	for i := 1; i < len(rows); i++ {
		if rows[i].DDoSimKbps <= rows[i-1].DDoSimKbps || rows[i].HardwareKbps <= rows[i-1].HardwareKbps {
			t.Fatalf("validation curves not increasing: %+v vs %+v", rows[i-1], rows[i])
		}
	}
	if RenderFig4(rows) == "" {
		t.Fatal("empty render")
	}
}

func TestResilienceQuick(t *testing.T) {
	rows, err := Resilience(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Intensity != 0 || rows[2].Intensity != 1 {
		t.Fatalf("intensity endpoints = %v, %v", rows[0].Intensity, rows[2].Intensity)
	}
	// Intensity 0 must be a genuinely fault-free run.
	if rows[0].FaultEvents != 0 {
		t.Fatalf("faults injected at intensity 0: %v", rows[0].FaultEvents)
	}
	if rows[2].FaultEvents == 0 {
		t.Fatal("no faults injected at intensity 1")
	}
	// The attack degrades under faults…
	if rows[0].DReceivedKbps <= 0 {
		t.Fatalf("fault-free D_received = %v", rows[0].DReceivedKbps)
	}
	if rows[2].DReceivedKbps >= rows[0].DReceivedKbps {
		t.Fatalf("D_received did not degrade: %v (x=1) vs %v (x=0)",
			rows[2].DReceivedKbps, rows[0].DReceivedKbps)
	}
	// …while recruitment holds up, recovered by the loader's backoff
	// re-dials (which faults force into action).
	if rows[0].InfectionRate != 1.0 {
		t.Fatalf("fault-free infection rate = %v", rows[0].InfectionRate)
	}
	if rows[2].InfectionRate < 0.5 {
		t.Fatalf("infection rate collapsed under faults: %v", rows[2].InfectionRate)
	}
	if rows[2].LoaderRedials == 0 {
		t.Fatal("harsh scenario never exercised the loader's re-dial path")
	}
	out := RenderResilience(rows)
	if !strings.Contains(out, "intensity") || !strings.Contains(out, "loader redials") {
		t.Fatalf("render = %q", out)
	}
}
