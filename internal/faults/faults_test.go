package faults

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

func testLinks(t *testing.T, seed int64, n int) (*sim.Scheduler, []*netsim.NetDevice) {
	t.Helper()
	sched := sim.NewScheduler(seed)
	star := netsim.NewStar(netsim.New(sched))
	devs := make([]*netsim.NetDevice, n)
	for i := range devs {
		h := star.AttachHost(fmt.Sprintf("h%d", i), 500*netsim.Kbps, sim.Millisecond, 0)
		devs[i] = h.DefaultDevice()
	}
	return sched, devs
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{BurstLoss: 1.5},
		{BurstLoss: -0.1},
		{DegradeFactor: 2},
		{BurstLoss: math.NaN()},
		{DegradePeriod: sim.Second, DegradeFactor: math.NaN()},
		{DegradeQueueFactor: math.NaN()},
		{FlapMode: "sometimes"},
		{FlapPeriod: -sim.Second},
		{DegradePeriod: sim.Second, DegradeFactor: 0, DegradeQueueFactor: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	good := Config{FlapPeriod: sim.Minute, BurstLoss: 1.0}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if !good.Enabled() {
		t.Error("flap config not enabled")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("flap:period=60s,down=5s,mode=periodic;loss:rate=0.9,burst=5s,gap=30s")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		FlapPeriod: sim.Minute, FlapDown: 5 * sim.Second, FlapMode: FlapPeriodic,
		BurstLoss: 0.9, BurstMean: 5 * sim.Second, BurstGap: 30 * sim.Second,
	}
	if cfg != want {
		t.Fatalf("parsed = %+v, want %+v", cfg, want)
	}
	if cfg, err = ParseSpec(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	for _, bad := range []string{
		"flap",                                 // no key=val
		"meteor:period=9s",                     // unknown kind
		"flap:interval=9s",                     // unknown key
		"loss:rate=high",                       // not a number
		"flap:period=-5s",                      // negative duration
		"crash:period=ten",                     // not a duration
		"loss:rate=1.2",                        // fails Validate
		"intensity=2",                          // out of range
		"intensity=NaN",                        // not in [0,1]
		"loss:rate=NaN",                        // not in [0,1]
		"degrade:period=5s,factor=NaN",         // not in [0,1]
		"degrade:period=5s,factor=0,qfactor=0", // fails Validate
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParseSpecIntensityMergesUnderExplicitClauses(t *testing.T) {
	cfg, err := ParseSpec("intensity=1;flap:period=10s,down=1s")
	if err != nil {
		t.Fatal(err)
	}
	canon := AtIntensity(1)
	if cfg.FlapPeriod != 10*sim.Second || cfg.FlapDown != sim.Second {
		t.Fatalf("explicit flap clause lost: %+v", cfg)
	}
	if cfg.BurstLoss != canon.BurstLoss || cfg.CrashPeriod != canon.CrashPeriod {
		t.Fatalf("intensity fields lost: %+v", cfg)
	}
	// Order must not matter for precedence: explicit clauses win.
	cfg2, err := ParseSpec("flap:period=10s,down=1s;intensity=1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg2 != cfg {
		t.Fatalf("clause order changed the config: %+v vs %+v", cfg2, cfg)
	}
}

func TestAtIntensityScaling(t *testing.T) {
	if AtIntensity(0) != (Config{}) {
		t.Fatal("intensity 0 not a zero config")
	}
	if AtIntensity(2) != AtIntensity(1) {
		t.Fatal("intensity not clamped to 1")
	}
	lo, hi := AtIntensity(0.25), AtIntensity(1)
	if err := lo.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := hi.Validate(); err != nil {
		t.Fatal(err)
	}
	// Harsher scenario at higher intensity: faults arrive more often
	// and bite harder.
	if hi.FlapPeriod >= lo.FlapPeriod || hi.CrashPeriod >= lo.CrashPeriod ||
		hi.CNCOutagePeriod >= lo.CNCOutagePeriod {
		t.Fatalf("periods not decreasing: lo=%+v hi=%+v", lo, hi)
	}
	if hi.BurstLoss <= lo.BurstLoss || hi.DegradeFactor >= lo.DegradeFactor {
		t.Fatalf("severity not increasing: lo=%+v hi=%+v", lo, hi)
	}
	if hi.SinkOutagePeriod != 0 {
		t.Fatal("canonical scenario must not corrupt the D_received measurement")
	}
}

// faultLog runs a full scenario against real netsim links and fake
// process targets and returns the observed event sequence.
func faultLog(t *testing.T, seed int64) []string {
	t.Helper()
	sched, devs := testLinks(t, seed, 3)
	cfg := Config{
		FlapPeriod:       40 * sim.Second,
		BurstLoss:        1.0,
		BurstGap:         30 * sim.Second,
		DegradePeriod:    50 * sim.Second,
		DegradeFactor:    0.25,
		CrashPeriod:      60 * sim.Second,
		CNCCrashPeriod:   90 * sim.Second,
		CNCOutagePeriod:  80 * sim.Second,
		SinkOutagePeriod: 70 * sim.Second,
	}
	inj, err := New(sched, cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	inj.OnEvent = func(kind, actor string) {
		log = append(log, fmt.Sprintf("%d %s %s", sched.Now(), kind, actor))
	}
	for i, d := range devs {
		inj.AddLink(fmt.Sprintf("dev-%d", i), d)
		inj.AddProcTarget(ProcTarget{
			Name:    fmt.Sprintf("dev-%d", i),
			Crash:   func(rng *rand.Rand) (string, bool) { return "daemon", rng.Intn(2) == 0 },
			Restart: func(string) bool { return true },
		})
	}
	cncHost := netsim.NewStar(netsim.New(sched)).AttachHost("atk", netsim.Mbps, sim.Millisecond, 0)
	inj.SetCNC("attacker", cncHost.DefaultDevice(), ProcTarget{
		Name:    "attacker",
		Crash:   func(*rand.Rand) (string, bool) { return "cnc", true },
		Restart: func(string) bool { return true },
	})
	inj.SetSink(func(bool) {})
	inj.Start()
	if err := sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	inj.Stop()
	st := inj.Stats()
	if st.Total() == 0 {
		t.Fatal("scenario injected nothing")
	}
	return log
}

func TestInjectorScheduleIsSeedDeterministic(t *testing.T) {
	a, b := faultLog(t, 42), faultLog(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a, b)
	}
	c := faultLog(t, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical schedules")
	}
}

func TestFlapTakesLinkDownAndRestores(t *testing.T) {
	sched, devs := testLinks(t, 1, 1)
	inj, err := New(sched, Config{
		FlapPeriod: sim.Minute, FlapDown: 5 * sim.Second, FlapMode: FlapPeriodic,
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.AddLink("dev-0", devs[0])
	inj.Start()
	sawDown := false
	tick := sim.NewTicker(sched, sim.Second, func() {
		if !devs[0].IsUp() {
			sawDown = true
		}
	})
	tick.Start()
	if err := sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	tick.Stop()
	if !sawDown {
		t.Fatal("link never flapped")
	}
	if !devs[0].IsUp() {
		t.Fatal("link not restored after flap window")
	}
	if inj.Stats().LinkFlaps == 0 {
		t.Fatal("no flaps counted")
	}
}

func TestDegradeRestoresRateAndQueue(t *testing.T) {
	sched, devs := testLinks(t, 1, 1)
	origRate, origQueue := devs[0].Rate(), devs[0].QueueLimit()
	inj, err := New(sched, Config{
		DegradePeriod: 30 * sim.Second, DegradeDown: 5 * sim.Second,
		DegradeFactor: 0.25, DegradeQueueFactor: 0.5,
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.AddLink("dev-0", devs[0])
	inj.Start()
	sawSlow := false
	tick := sim.NewTicker(sched, sim.Second, func() {
		if devs[0].Rate() < origRate {
			sawSlow = true
			if devs[0].QueueLimit() >= origQueue {
				t.Error("queue not shortened in degrade window")
			}
		}
	})
	tick.Start()
	if err := sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	tick.Stop()
	if !sawSlow {
		t.Fatal("link never degraded")
	}
	if devs[0].Rate() != origRate || devs[0].QueueLimit() != origQueue {
		t.Fatalf("not restored: rate %v queue %d", devs[0].Rate(), devs[0].QueueLimit())
	}
	if inj.Stats().DegradeWindows == 0 {
		t.Fatal("no degrade windows counted")
	}
}

func TestCrashRestartAndBotStaysDead(t *testing.T) {
	sched, _ := testLinks(t, 1, 0)
	inj, err := New(sched, Config{
		CrashPeriod: 20 * sim.Second, RestartDelay: 2 * sim.Second,
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	crashes, restarts := 0, 0
	inj.AddProcTarget(ProcTarget{
		Name: "dev-0",
		Crash: func(*rand.Rand) (string, bool) {
			crashes++
			if crashes%2 == 0 {
				return "bot", true // the supervisor must not revive bots
			}
			return "daemon", true
		},
		Restart: func(what string) bool {
			if what == "bot" {
				return false
			}
			restarts++
			return true
		},
	})
	inj.Start()
	if err := sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	st := inj.Stats()
	if st.ProcCrashes == 0 || int(st.ProcCrashes) != crashes {
		t.Fatalf("ProcCrashes = %d, crashes = %d", st.ProcCrashes, crashes)
	}
	if st.ProcRestarts == 0 || int(st.ProcRestarts) != restarts {
		t.Fatalf("ProcRestarts = %d, restarts = %d (bot revivals?)", st.ProcRestarts, restarts)
	}
	if st.ProcRestarts >= st.ProcCrashes {
		t.Fatalf("every crash restarted (%d/%d); bots must stay dead", st.ProcRestarts, st.ProcCrashes)
	}
}

func TestStopQuiescesPendingFaults(t *testing.T) {
	sched, devs := testLinks(t, 1, 1)
	inj, err := New(sched, Config{FlapPeriod: 10 * sim.Second, FlapMode: FlapPeriodic}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.AddLink("dev-0", devs[0])
	inj.Start()
	inj.Stop()
	if err := sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if inj.Stats().LinkFlaps != 0 {
		t.Fatalf("stopped injector still flapped %d times", inj.Stats().LinkFlaps)
	}
	if !devs[0].IsUp() {
		t.Fatal("link down after Stop")
	}
}
