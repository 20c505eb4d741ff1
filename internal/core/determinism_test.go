package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"ddosim/internal/churn"
	"ddosim/internal/core"
	"ddosim/internal/faults"
	"ddosim/internal/report"
	"ddosim/internal/sim"
)

// artifacts holds every serialized export of one run. The determinism
// tests compare (and hash) these byte-for-byte.
type artifacts struct {
	rep    []byte // report JSON
	jsonl  []byte // trace JSONL
	chrome []byte // Chrome trace_event JSON
	flows  []byte // labeled flow dataset CSV
	ts     []byte // windowed time-series CSV
}

// equal compares all artifacts and reports each mismatch through t.
func (a artifacts) equal(t *testing.T, b artifacts, what string) {
	t.Helper()
	pairs := []struct {
		name   string
		x1, x2 []byte
	}{
		{"report JSON", a.rep, b.rep},
		{"trace JSONL", a.jsonl, b.jsonl},
		{"Chrome trace", a.chrome, b.chrome},
		{"flow CSV", a.flows, b.flows},
		{"time-series CSV", a.ts, b.ts},
	}
	for _, p := range pairs {
		if !bytes.Equal(p.x1, p.x2) {
			t.Errorf("%s: %s differs:\n%s", what, p.name, firstDiff(p.x1, p.x2))
		}
	}
}

// runOnce executes a small end-to-end scenario — dynamic churn keeps
// membership flips, rejoin timers, and C&C reaping all active — and
// returns every serialized artifact. The profiler's wall clock is
// replaced with a deterministic counter so the report's observability
// summary is seed-determined too.
func runOnce(t *testing.T, seed int64) artifacts {
	return runOnceFaults(t, seed, faults.Config{})
}

func runOnceFaults(t *testing.T, seed int64, fc faults.Config) artifacts {
	return runOnceShards(t, seed, 0, fc)
}

// runOnceShards is the fully parameterized scenario driver: shard
// count (0 = classic kernel) and fault scenario.
func runOnceShards(t *testing.T, seed int64, shards int, fc faults.Config) artifacts {
	t.Helper()
	cfg := core.DefaultConfig(10)
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.Churn = churn.Dynamic
	cfg.SimDuration = 300 * sim.Second
	cfg.AttackDuration = 30
	cfg.RecruitTimeout = 90 * sim.Second
	cfg.Faults = fc
	a, _, _ := runCfg(t, cfg)
	return a
}

// runCfg executes an arbitrary configuration with a deterministic
// profiler clock and serializes every artifact. Shared by the classic
// determinism scenarios above and the P2P-family ones in p2p_test.go.
func runCfg(t *testing.T, cfg core.Config) (artifacts, *core.Simulation, *core.Results) {
	t.Helper()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fakeNanos int64
	s.Obs().Prof.SetClock(func() int64 {
		fakeNanos += 1_000_000
		return fakeNanos
	})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	var out artifacts
	for _, w := range []struct {
		dst   *[]byte
		write func(io.Writer) error
	}{
		{&out.rep, report.FromResults(cfg, r, true).WriteJSON},
		{&out.jsonl, s.Obs().Trace.WriteJSONL},
		{&out.chrome, s.Obs().Trace.WriteChromeTrace},
		{&out.flows, s.Flows().WriteCSV},
		{&out.ts, s.Windows().WriteCSV},
	} {
		var buf bytes.Buffer
		if err := w.write(&buf); err != nil {
			t.Fatal(err)
		}
		*w.dst = buf.Bytes()
	}
	return out, s, r
}

// TestSameSeedByteIdenticalArtifacts is the executable form of the
// invariant simlint's analyzers guard statically: two runs with the
// same seed must serialize byte-identical report JSON and trace
// exports. Any wall-clock read, global-RNG draw, or map-iteration
// leak in a live path shows up here as a diff.
func TestSameSeedByteIdenticalArtifacts(t *testing.T) {
	a1 := runOnce(t, 1234)
	a2 := runOnce(t, 1234)
	a1.equal(t, a2, "same-seed runs")

	// A different seed must actually change the run, or the assertions
	// above prove nothing.
	a3 := runOnce(t, 99)
	if bytes.Equal(a1.rep, a3.rep) {
		t.Error("different seeds produced identical report JSON; scenario is not seed-sensitive")
	}
	if bytes.Equal(a1.flows, a3.flows) {
		t.Error("different seeds produced identical flow CSV; scenario is not seed-sensitive")
	}
}

// TestShardCountInvariantArtifacts is the sharded kernel's core
// determinism claim: within the sharded family, the shard count is a
// pure deployment knob — every exported artifact (report, both trace
// exports, flow CSV, time-series CSV) is byte-identical at S=1, 2, 4,
// and 8 for the same seed. Per-LP RNG streams, the uniform mailbox
// path, and the (At, SrcLP, SrcSeq) merge order are what make this
// hold; any leak of shard topology into event order lands here as a
// byte diff.
func TestShardCountInvariantArtifacts(t *testing.T) {
	base := runOnceShards(t, 1234, 1, faults.Config{})
	for _, n := range []int{2, 4, 8} {
		a := runOnceShards(t, 1234, n, faults.Config{})
		base.equal(t, a, fmt.Sprintf("shards=1 vs shards=%d", n))
	}

	// Same-seed reproducibility within one shard count (goroutine
	// scheduling must not be observable), and seed sensitivity.
	again := runOnceShards(t, 1234, 4, faults.Config{})
	base.equal(t, again, "shards=4 repeat")
	other := runOnceShards(t, 99, 4, faults.Config{})
	if bytes.Equal(base.rep, other.rep) {
		t.Error("different seeds produced identical sharded report JSON; scenario is not seed-sensitive")
	}
}

// TestShardCountInvariantUnderFaults drives the harsh fault scenario
// through the sharded kernel: the injector's barrier-context mutations
// (link flaps, loss bursts, degradation, process crashes, C&C and sink
// outages) must leave artifacts byte-identical across shard counts.
func TestShardCountInvariantUnderFaults(t *testing.T) {
	fc := faults.AtIntensity(0.8)
	a1 := runOnceShards(t, 1234, 1, fc)
	a4 := runOnceShards(t, 1234, 4, fc)
	a1.equal(t, a4, "fault scenario, shards=1 vs shards=4")
	if !bytes.Contains(a1.rep, []byte(`"faults"`)) {
		t.Error("sharded fault scenario left no stats in the report")
	}
}

// TestFaultFreeArtifactsMatchPrePRGolden pins the zero-cost guarantee
// of the fault-injection subsystem: with a zero Faults config, every
// artifact of the runOnce scenario is byte-identical across commits.
// The hashes were last re-captured when the reconnect path gained
// per-bot deterministic jitter and capped backoff (every reconnect
// timestamp moved). If an intentional change elsewhere moves these
// bytes, re-capture the hashes — but a diff caused by a faults-related
// change means the zero-value path is no longer free.
func TestFaultFreeArtifactsMatchPrePRGolden(t *testing.T) {
	const (
		goldenReport = "bfd35824d86665d66a2145b6052faef9c8833758048903ecea465807b2415a88"
		goldenJSONL  = "63dfc99c88bce61e51a4a581ced89300e09bf0d2375d66542737a950586ee8fa"
		goldenChrome = "9c795ed86b9d15cf7b320a8ec225b19648f5e7c0005981f8eb4f9e2c8e009f8a"
		goldenFlows  = "13cffc1ccdc455f2ec8b12ca56fd588684f5153b82e273c457192c0c3dc55097"
		goldenTS     = "1c32e115904f53dafff0228742b7945e99f4f41ef1b06541762a29653fb9161f"
	)
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	a := runOnce(t, 1234)
	for _, g := range []struct {
		name, want string
		got        []byte
	}{
		{"report JSON", goldenReport, a.rep},
		{"trace JSONL", goldenJSONL, a.jsonl},
		{"Chrome trace", goldenChrome, a.chrome},
		{"flow CSV", goldenFlows, a.flows},
		{"time-series CSV", goldenTS, a.ts},
	} {
		if got := hash(g.got); got != g.want {
			t.Errorf("%s hash = %s, want %s", g.name, got, g.want)
		}
	}
}

// TestFaultScenarioByteIdenticalArtifacts extends the determinism
// contract to active fault injection: the injector draws from its own
// seeded stream, so two same-seed runs of a harsh scenario must still
// serialize byte-identically — and the scenario must actually inject.
func TestFaultScenarioByteIdenticalArtifacts(t *testing.T) {
	fc := faults.AtIntensity(0.8)
	a1 := runOnceFaults(t, 1234, fc)
	a2 := runOnceFaults(t, 1234, fc)
	a1.equal(t, a2, "same-seed fault runs")

	if !bytes.Contains(a1.rep, []byte(`"faults"`)) {
		t.Error("fault scenario left no stats in the report")
	}
	// The scenario must perturb the run relative to fault-free.
	free := runOnce(t, 1234)
	if bytes.Equal(a1.rep, free.rep) {
		t.Error("intensity-0.8 scenario changed nothing")
	}
}

// firstDiff renders the context around the first differing byte.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-80)
			return "first diff at byte " + itoa(i) +
				"\n run1: …" + string(a[lo:min(len(a), i+80)]) +
				"\n run2: …" + string(b[lo:min(len(b), i+80)])
		}
	}
	return "lengths differ: " + itoa(len(a)) + " vs " + itoa(len(b))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
