package core_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"
	"testing"

	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/sim"
)

// sinkColumn reads the sink_rx_bytes column of a run's 1 s time-series
// CSV, indexed by second. It also checks that row k starts at second k,
// so an index into the column is an index into the paper's per-second
// log.
func sinkColumn(t *testing.T, ts []byte) []float64 {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(ts)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, name := range recs[0] {
		if name == "sink_rx_bytes" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no sink_rx_bytes column in %q", recs[0])
	}
	out := make([]float64, 0, len(recs)-1)
	for k, rec := range recs[1:] {
		if rec[0] != strconv.Itoa(k) {
			t.Fatalf("row %d starts at %s s, want %d", k, rec[0], k)
		}
		v, err := strconv.ParseFloat(rec[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// TestDReceivedIsTheSinkColumn pins D_received (Eq. 2) and the
// per-second rate series to the sink_rx_bytes column of the 1 s
// time-series grid: both kernels, both botnet families, with and
// without sink outages.
func TestDReceivedIsTheSinkColumn(t *testing.T) {
	outage := faults.Config{SinkOutagePeriod: 15 * sim.Second, SinkOutageDown: 4 * sim.Second}
	for _, botnet := range []string{core.BotnetMirai, core.BotnetP2P} {
		for _, shards := range []int{0, 2} {
			for _, fc := range []faults.Config{{}, outage} {
				name := fmt.Sprintf("%s/shards=%d/sink-outage=%v", botnet, shards, fc.Enabled())
				t.Run(name, func(t *testing.T) {
					cfg := p2pConfig(7, shards)
					cfg.NumDevs = 40
					cfg.Botnet = botnet
					cfg.Faults = fc
					a, _, r := runCfg(t, cfg)
					if r.AttackIssuedAt == 0 {
						t.Fatal("attack never issued")
					}
					if fc.Enabled() && (r.Faults == nil || r.Faults.SinkOutages == 0) {
						t.Fatal("outage scenario injected no sink outage")
					}
					col := sinkColumn(t, a.ts)
					from := int(r.AttackIssuedAt / sim.Second)
					n := cfg.AttackDuration
					if len(r.PerSecondKbps) != n {
						t.Fatalf("PerSecondKbps has %d seconds, want %d", len(r.PerSecondKbps), n)
					}
					var sum float64
					for i, got := range r.PerSecondKbps {
						var b float64
						if from+i < len(col) {
							b = col[from+i]
						}
						if want := b * 8 / 1000; got != want {
							t.Errorf("second %d: PerSecondKbps %v, column gives %v", from+i, got, want)
						}
						sum += b
					}
					if sum == 0 {
						t.Fatal("no attack bytes reached the sink")
					}
					if want := sum * 8 / 1000 / float64(n); r.DReceivedKbps != want {
						t.Errorf("DReceivedKbps = %v, column mean gives %v", r.DReceivedKbps, want)
					}
				})
			}
		}
	}
}
