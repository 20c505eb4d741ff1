package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ddosim/internal/core"
	"ddosim/internal/metrics"
	"ddosim/internal/sim"
)

func sampleRun(t *testing.T) (core.Config, *core.Results) {
	t.Helper()
	cfg := core.DefaultConfig(6)
	cfg.SimDuration = 300 * sim.Second
	cfg.AttackDuration = 20
	cfg.RecruitTimeout = 60 * sim.Second
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, r
}

func TestJSONRoundTrip(t *testing.T) {
	cfg, r := sampleRun(t)
	run := FromResults(cfg, r, true)
	var buf bytes.Buffer
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Run
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Devs != 6 || back.Infected != 6 || back.DReceivedKbps != run.DReceivedKbps {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if len(back.PerSecondKbps) != cfg.AttackDuration {
		t.Fatalf("series length = %d", len(back.PerSecondKbps))
	}
	if len(back.Timeline) == 0 {
		t.Fatal("timeline missing")
	}
	if back.ChurnMode != "no churn" || back.Vector != "memory-error" {
		t.Fatalf("config echo = %q %q", back.ChurnMode, back.Vector)
	}
}

func TestJSONWithoutDetail(t *testing.T) {
	cfg, r := sampleRun(t)
	run := FromResults(cfg, r, false)
	if run.PerSecondKbps != nil || run.Timeline != nil {
		t.Fatal("detail embedded despite includeDetail=false")
	}
	var buf bytes.Buffer
	if err := run.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "per_second_kbps") {
		t.Fatal("omitempty not applied")
	}
}

// TestPhaseSummaryGolden pins the kill-chain phase-latency summary
// (and the labeled flow aggregate) for the deterministic sample run.
// If an intentional simulation change shifts these numbers, re-capture
// by running with -v and pasting the printed values.
func TestPhaseSummaryGolden(t *testing.T) {
	_, r := sampleRun(t)
	phases, err := json.Marshal(r.Phases)
	if err != nil {
		t.Fatal(err)
	}
	const wantPhases = `[{"phase":"attack","count":6,"min_s":0.09418735,"mean_s":0.41978636566666666,"max_s":0.860094465,"total_s":2.518718194},{"phase":"exploit","count":6,"min_s":0,"mean_s":0,"max_s":0,"total_s":0},{"phase":"recruit","count":6,"min_s":0.008119215,"mean_s":1.1269767275,"max_s":3.09560186,"total_s":6.761860365}]`
	if string(phases) != wantPhases {
		t.Errorf("phase summary drifted:\n got %s\nwant %s", phases, wantPhases)
	}
	flows, err := json.Marshal(r.Flows)
	if err != nil {
		t.Fatal(err)
	}
	const wantFlows = `{"flows":102,"packets":10573,"bytes":5698702,"labels":[{"label":"attack","flows":6,"packets":10224,"bytes":5664096},{"label":"cnc","flows":60,"packets":150,"bytes":8580},{"label":"exploit","flows":36,"packets":199,"bytes":26026}]}`
	if string(flows) != wantFlows {
		t.Errorf("flow summary drifted:\n got %s\nwant %s", flows, wantFlows)
	}
	if mean, ok := r.MeanPhaseSecs("recruit"); !ok || mean <= 0 {
		t.Fatalf("MeanPhaseSecs(recruit) = %v, %v", mean, ok)
	}
	if _, ok := r.MeanPhaseSecs("no-such-phase"); ok {
		t.Fatal("MeanPhaseSecs invented a phase")
	}
}

func TestSeriesCSV(t *testing.T) {
	csv := SeriesCSV([]float64{1.5, 2.5}, 10)
	want := "second,kbps\n10,1.500\n11,2.500\n"
	if csv != want {
		t.Fatalf("csv = %q", csv)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(make([]float64, 3)); got != "▁▁▁" {
		t.Fatalf("quiet sparkline = %q", got)
	}
	line := []rune(Sparkline([]float64{8, 4}))
	if len(line) != 2 || line[0] == line[1] {
		t.Fatalf("sparkline does not distinguish levels: %q", string(line))
	}
	if line[0] != '█' {
		t.Fatalf("series maximum drawn as %q, want the full block", line[0])
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := metrics.NewTimeline()
	tl.Record(1500*sim.Millisecond, "infected", "dev-1")
	csv := TimelineCSV(tl)
	if !strings.Contains(csv, "1.500000,infected,dev-1") {
		t.Fatalf("csv = %q", csv)
	}
	if got := TimelineCSV(nil); got != "at_s,kind,actor\n" {
		t.Fatalf("nil timeline csv = %q", got)
	}
}

func TestWindowStart(t *testing.T) {
	_, r := sampleRun(t)
	if got := WindowStart(r); got <= 0 {
		t.Fatalf("window start = %d", got)
	}
	if got := WindowStart(&core.Results{AttackIssuedAt: -1}); got != 0 {
		t.Fatalf("unissued window start = %d", got)
	}
}
