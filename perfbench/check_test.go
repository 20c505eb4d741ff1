package main

import (
	"strings"
	"testing"

	"ddosim/ddosim"
)

// resultsFor builds the Results a run of w at defaultSeed returns, as
// far as the output check reads them.
func resultsFor(t *testing.T, name string) (workload, *ddosim.Results) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	o := pinned[name]
	r := &ddosim.Results{
		DevsTotal:       o.Devs,
		ExploitAttempts: o.Attempts,
		Hijacked:        o.Hijacked,
		Crashed:         o.Crashed,
		Infected:        o.Infected,
		BotsRegistered:  o.Registered,
		BotsAtCommand:   o.AtCommand,
		DReceivedKbps:   o.DReceivedKbps,
		SinkBytes:       o.SinkBytes,
	}
	r.NetStats.TxFrames, r.NetStats.Drops = o.TxFrames, o.Drops
	r.Flows.Flows = o.FlowRecords
	return w, r
}

func TestEveryWorkloadIsPinned(t *testing.T) {
	for _, w := range workloads {
		if _, ok := pinned[w.name]; !ok {
			t.Errorf("workload %q has no pinned outputs", w.name)
		}
		_, r := resultsFor(t, w.name)
		if err := checkOutputs(w, defaultSeed, outputsOf(r)); err != nil {
			t.Errorf("%s: pinned outputs fail their own check: %v", w.name, err)
		}
	}
}

func TestCheckRejectsPerturbedResults(t *testing.T) {
	perturb := []struct {
		name string
		f    func(r *ddosim.Results)
	}{
		{"infected", func(r *ddosim.Results) { r.Infected-- }},
		{"at_command", func(r *ddosim.Results) { r.BotsAtCommand-- }},
		{"d_received", func(r *ddosim.Results) { r.DReceivedKbps *= 1 + 1e-12 }},
		{"sink_bytes", func(r *ddosim.Results) { r.SinkBytes++ }},
		{"drops", func(r *ddosim.Results) { r.NetStats.Drops++ }},
		{"flow_records", func(r *ddosim.Results) { r.Flows.Flows++ }},
	}
	for _, p := range perturb {
		w, r := resultsFor(t, "flood")
		p.f(r)
		if err := checkOutputs(w, defaultSeed, outputsOf(r)); err == nil {
			t.Errorf("perturbed %s passed the seed-%d check", p.name, defaultSeed)
		}
	}
}

func TestCheckInvariantsOnOtherSeeds(t *testing.T) {
	const seed = defaultSeed + 1
	w, r := resultsFor(t, "flood")
	if err := checkOutputs(w, seed, outputsOf(r)); err != nil {
		t.Fatalf("valid outputs rejected at seed %d: %v", seed, err)
	}
	bad := []struct {
		name, want string
		f          func(r *ddosim.Results)
	}{
		{"infected above hijacked", "hijacked", func(r *ddosim.Results) { r.Hijacked = r.Infected - 1 }},
		{"drops above tx frames", "drops", func(r *ddosim.Results) { r.NetStats.Drops = r.NetStats.TxFrames + 1 }},
		{"no flood", "flood", func(r *ddosim.Results) { r.DReceivedKbps = 0 }},
		{"no bots commanded", "command", func(r *ddosim.Results) { r.BotsAtCommand = 0 }},
		{"no flows", "flow", func(r *ddosim.Results) { r.Flows.Flows = 0 }},
	}
	for _, b := range bad {
		w, r := resultsFor(t, "flood")
		b.f(r)
		err := checkOutputs(w, seed, outputsOf(r))
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", b.name, err, b.want)
		}
	}
	// recruit's one-second attack window carries no flood; that alone
	// is not a failure there.
	w, r = resultsFor(t, "recruit")
	if err := checkOutputs(w, seed, outputsOf(r)); err != nil {
		t.Errorf("recruit with no flood in its window rejected: %v", err)
	}
}
