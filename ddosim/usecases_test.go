package ddosim_test

import (
	"net/netip"
	"testing"

	"ddosim/ddosim"
)

// TestUseCaseToolkitEndToEnd drives every §V helper through the
// public facade on one instrumented run: traffic capture, flow
// records, feature extraction, detector training, mitigation, and
// epidemic fitting.
func TestUseCaseToolkitEndToEnd(t *testing.T) {
	cfg := smallConfig(15)
	cfg.AttackDuration = 40
	sim, err := ddosim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	capture := ddosim.StartCapture(sim.TServer(), 1000)
	extractor := ddosim.NewTrafficExtractor(sim.TServer())
	dst := netip.AddrPortFrom(sim.TServer().Addr4(), 80)
	if err := ddosim.InstallBenignClients(sim.Star(), dst, 4, "benign"); err != nil {
		t.Fatal(err)
	}

	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected != 15 {
		t.Fatalf("infected = %d", r.Infected)
	}

	// Capture and flows observed the attack.
	if capture.Total() == 0 {
		t.Fatal("capture saw nothing")
	}
	// Top talker from the flow records addressed to TServer, summed
	// per source: offered load at the sender, ground-truth labeled.
	bytesFrom := make(map[netip.Addr]uint64)
	var top netip.Addr
	var topLabel string
	for _, rec := range sim.Flows().Records() {
		if rec.Dst.Addr() != sim.TServer().Addr4() {
			continue
		}
		src := rec.Src.Addr()
		bytesFrom[src] += rec.Bytes
		if bytesFrom[src] > bytesFrom[top] {
			top, topLabel = src, rec.Label
		}
	}
	if len(bytesFrom) < 15 {
		t.Fatalf("sources = %d", len(bytesFrom))
	}
	if bytesFrom[top] == 0 || topLabel != "attack" {
		t.Fatalf("top talker %v: %d bytes, label %q", top, bytesFrom[top], topLabel)
	}

	// Train and evaluate a detector on extracted windows.
	attackFrom := int64(r.AttackIssuedAt / ddosim.Second)
	attackTo := attackFrom + int64(cfg.AttackDuration)
	var samples []ddosim.DetectorSample
	for sec := int64(2); sec < attackTo+20; sec++ {
		samples = append(samples, ddosim.DetectorSample{
			X:      extractor.Window(sec).Slice(),
			Attack: sec >= attackFrom && sec < attackTo,
		})
	}
	det := ddosim.TrainDetector(samples, 150, 0.1, 1)
	conf := ddosim.EvaluateDetector(det, samples)
	if conf.Accuracy() < 0.9 {
		t.Fatalf("detector accuracy = %.2f (confusion %+v)", conf.Accuracy(), conf)
	}

	// Fit the infection curve.
	curve := ddosim.InfectionCurveFromTimeline(r.Timeline)
	if len(curve.Times) != 15 {
		t.Fatalf("infection curve has %d points", len(curve.Times))
	}
	lambda, rmse := ddosim.FitInfectionLambda(curve, 15, curve.Times[len(curve.Times)-1]+5)
	if lambda <= 0 || rmse < 0 {
		t.Fatalf("fit: lambda=%v rmse=%v", lambda, rmse)
	}
	beta, _ := ddosim.FitInfectionBeta(curve, 15, curve.Times[len(curve.Times)-1]+5)
	if beta <= 0 {
		t.Fatalf("beta = %v", beta)
	}
	times, infected := ddosim.SimulateExternalInfection(lambda, 15, 0.05, 30)
	if len(times) == 0 || len(infected) != len(times) {
		t.Fatal("model simulation empty")
	}
}

func TestMitigationViaFacade(t *testing.T) {
	// Same attack with and without a deployed rate limiter.
	base := smallConfig(12)
	r1, err := ddosim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := ddosim.New(base)
	if err != nil {
		t.Fatal(err)
	}
	rl := ddosim.InstallRateLimiter(sim2.TServer(), 2500, 8192, 200)
	r2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.DReceivedKbps*5 > r1.DReceivedKbps {
		t.Fatalf("mitigation ineffective: %.1f vs %.1f kbps", r2.DReceivedKbps, r1.DReceivedKbps)
	}
	if rl.Blacklisted() == 0 {
		t.Fatal("no bots blacklisted")
	}
	rl.Uninstall()
}

func TestAttackMethodsViaFacade(t *testing.T) {
	for _, method := range []string{ddosim.MethodUDPPlain, ddosim.MethodSYN, ddosim.MethodACK} {
		cfg := smallConfig(5)
		cfg.AttackMethod = method
		r, err := ddosim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if r.DReceivedKbps <= 0 {
			t.Fatalf("%s: no traffic", method)
		}
	}
}
