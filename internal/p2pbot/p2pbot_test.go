package p2pbot

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/container"
	"ddosim/internal/mirai"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

func testKey() ([32]byte, [32]byte) {
	var seed [32]byte
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	var other [32]byte
	for i := range other {
		other[i] = byte(i*3 + 1)
	}
	return seed, other
}

func TestRecordSignVerify(t *testing.T) {
	seed, otherSeed := testKey()
	pub, priv := DeriveKey(seed)
	otherPub, _ := DeriveKey(otherSeed)

	rec := &Record{
		Seq:    3,
		Method: mirai.MethodUDPPlain,
		Target: netip.MustParseAddrPort("10.0.9.9:80"),
		Until:  1234 * sim.Second,
	}
	data := rec.Encode(priv)
	got, err := DecodeRecord(pub, data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rec {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
	// Wrong key.
	if _, err := DecodeRecord(otherPub, data); err == nil {
		t.Fatal("foreign public key must not verify")
	}
	// Bit flip in the body.
	tampered := append([]byte(nil), data...)
	tampered[3] ^= 0x40
	if _, err := DecodeRecord(pub, tampered); err == nil {
		t.Fatal("tampered record must not verify")
	}
	// Truncation.
	if _, err := DecodeRecord(pub, data[:10]); err == nil {
		t.Fatal("truncated record must not verify")
	}
	// IPv6 target.
	rec6 := &Record{Seq: 4, Method: mirai.MethodSYN,
		Target: netip.MustParseAddrPort("[2001:db8::9]:443"), Until: 99 * sim.Second}
	got6, err := DecodeRecord(pub, rec6.Encode(priv))
	if err != nil {
		t.Fatal(err)
	}
	if *got6 != *rec6 {
		t.Fatalf("v6 round trip mismatch: %+v vs %+v", got6, rec6)
	}
}

// ---------------------------------------------------------------------
// Overlay integration

type botnet struct {
	sched  *sim.Scheduler
	engine *container.Engine
	seedC  *container.Container
	seeder *Seeder
	bots   []*Bot
	botCs  []*container.Container
	victim netip.AddrPort
}

func (bn *botnet) runFor(t testing.TB, d sim.Time) {
	t.Helper()
	if err := bn.sched.Run(bn.sched.Now() + d); err != nil {
		t.Fatal(err)
	}
}

func newBotnet(t testing.TB, seedVal int64, nBots int) *botnet {
	t.Helper()
	sched := sim.NewScheduler(seedVal)
	star := netsim.NewStar(netsim.New(sched))
	eng := container.NewEngine(sched, star)
	bn := &botnet{sched: sched, engine: eng}

	mk := func(name string, rate netsim.DataRate) *container.Container {
		img := &container.Image{Name: "ddosim/" + name, Tag: "t", Arch: "x86_64",
			Files: map[string][]byte{}, ExecPaths: map[string]bool{}}
		eng.RegisterImage(img)
		c, err := eng.Create("ddosim/"+name+":t", name,
			container.LinkConfig{Rate: rate, Delay: sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	keySeed, _ := testKey()
	pub, priv := DeriveKey(keySeed)

	bn.seedC = mk("seed", 100*netsim.Mbps)
	bn.seeder = NewSeeder(SeederConfig{Key: priv, RepublishPeriod: 10 * sim.Second})
	bn.seedC.Spawn(bn.seeder)
	boot := []netip.AddrPort{bn.seeder.Node().Addr()}

	victimC := mk("victim", 100*netsim.Mbps)
	bn.victim = netip.AddrPortFrom(victimC.Node().Addr4(), 80)

	for i := 0; i < nBots; i++ {
		c := mk(fmt.Sprintf("bot-%d", i), 1*netsim.Mbps)
		bot := NewBot(BotConfig{Bootstrap: boot, PubKey: pub, PollPeriod: 10 * sim.Second})
		// Stagger infection like the exploit campaign would.
		delay := sim.Time(i) * 200 * sim.Millisecond
		sched.Schedule(delay, func() { c.Spawn(bot) })
		bn.bots = append(bn.bots, bot)
		bn.botCs = append(bn.botCs, c)
	}
	return bn
}

func (bn *botnet) attackers() int {
	n := 0
	for _, b := range bn.bots {
		if b.Attacking() {
			n++
		}
	}
	return n
}

func TestCommandDisseminatesAndFloodsStart(t *testing.T) {
	bn := newBotnet(t, 21, 10)
	bn.runFor(t, 30*sim.Second)

	for i, b := range bn.bots {
		if !b.Joined() {
			t.Fatalf("bot %d never joined the overlay", i)
		}
	}
	if bn.seeder.Contacts < len(bn.bots) {
		t.Fatalf("seeder census saw %d peers, want >= %d", bn.seeder.Contacts, len(bn.bots))
	}

	until := bn.sched.Now() + 5*sim.Minute
	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, until)
	// One poll period plus lookup time disseminates to everyone.
	bn.runFor(t, 30*sim.Second)

	if got := bn.attackers(); got != len(bn.bots) {
		t.Fatalf("%d/%d bots attacking after dissemination window", got, len(bn.bots))
	}
	for i, b := range bn.bots {
		if b.CommandsSeen != 1 {
			t.Fatalf("bot %d saw %d commands, want 1 (republish must not re-trigger)", i, b.CommandsSeen)
		}
	}
}

func TestFloodSurvivesSeederTakedown(t *testing.T) {
	bn := newBotnet(t, 21, 10)
	bn.runFor(t, 30*sim.Second)

	until := bn.sched.Now() + 5*sim.Minute
	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, until)
	bn.runFor(t, 30*sim.Second)
	if got := bn.attackers(); got != len(bn.bots) {
		t.Fatalf("precondition: %d/%d attacking", got, len(bn.bots))
	}

	// Take the seeder down hard: process killed, link severed.
	for _, p := range bn.seedC.Procs() {
		bn.seedC.Kill(p.PID())
	}
	bn.seedC.Node().DefaultDevice().SetUp(false)

	before := make([]uint64, len(bn.bots))
	for i, b := range bn.bots {
		before[i] = b.PacketsSent()
	}
	bn.runFor(t, 2*sim.Minute)
	for i, b := range bn.bots {
		if !b.Attacking() {
			t.Fatalf("bot %d stopped attacking after seeder takedown", i)
		}
		if b.PacketsSent() <= before[i] {
			t.Fatalf("bot %d flood stalled after takedown", i)
		}
	}

	// A bot infected AFTER the takedown still finds the record in the
	// surviving replicas (it must bootstrap off a live peer).
	lateC := func() *container.Container {
		img := &container.Image{Name: "ddosim/late", Tag: "t", Arch: "x86_64",
			Files: map[string][]byte{}, ExecPaths: map[string]bool{}}
		bn.engine.RegisterImage(img)
		c, err := bn.engine.Create("ddosim/late:t", "late",
			container.LinkConfig{Rate: 1 * netsim.Mbps, Delay: sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}()
	keySeed, _ := testKey()
	pub, _ := DeriveKey(keySeed)
	late := NewBot(BotConfig{
		Bootstrap:  []netip.AddrPort{bn.bots[0].Node().Addr(), bn.bots[1].Node().Addr()},
		PubKey:     pub,
		PollPeriod: 10 * sim.Second,
	})
	lateC.Spawn(late)
	bn.runFor(t, 30*sim.Second)
	if !late.Attacking() {
		t.Fatal("post-takedown recruit never learned the command from replicas")
	}

	// And the whole campaign winds down at the record's end time.
	bn.runFor(t, 5*sim.Minute)
	if got := bn.attackers(); got != 0 {
		t.Fatalf("%d bots still attacking past campaign end", got)
	}
}

// TestHandleRecordVerifiesEachDistinctRecordOnce pins the accepted-
// record memo: only a byte-identical repeat skips the signature check.
func TestHandleRecordVerifiesEachDistinctRecordOnce(t *testing.T) {
	bn := newBotnet(t, 21, 1)
	bn.runFor(t, sim.Second)
	bot, botC := bn.bots[0], bn.botCs[0]
	keySeed, _ := testKey()
	_, priv := DeriveKey(keySeed)
	until := bn.sched.Now() + sim.Minute
	rec := (&Record{Seq: 5, Method: mirai.MethodUDPPlain, Target: bn.victim, Until: until}).Encode(priv)
	rejections := func() int {
		n := 0
		for _, l := range botC.Logs() {
			if strings.Contains(l, "rejecting record") {
				n++
			}
		}
		return n
	}
	check := func(step string, verifies, seen int, seq uint64, rejected int) {
		t.Helper()
		if bot.Verifies != verifies || bot.CommandsSeen != seen || bot.lastSeq != seq || rejections() != rejected {
			t.Fatalf("%s: Verifies=%d CommandsSeen=%d lastSeq=%d rejections=%d, want %d %d %d %d",
				step, bot.Verifies, bot.CommandsSeen, bot.lastSeq, rejections(), verifies, seen, seq, rejected)
		}
	}

	// The memo must hold its own copy: the caller's buffer (a DHT
	// reply or STORE payload) is scribbled over after the call.
	buf := append([]byte(nil), rec...)
	bot.handleRecord(buf)
	check("valid record", 1, 1, 5, 0)
	for i := range buf {
		buf[i] = 0
	}

	bot.handleRecord(append([]byte(nil), rec...))
	check("byte-identical repeat", 1, 1, 5, 0)

	tampered := append([]byte(nil), rec...)
	tampered[len(tampered)-1] ^= 0x01 // last signature byte; seq still 5
	bot.handleRecord(tampered)
	check("tampered copy", 2, 1, 5, 1)

	stale := (&Record{Seq: 4, Method: mirai.MethodUDPPlain, Target: bn.victim, Until: until}).Encode(priv)
	bot.handleRecord(stale)
	check("stale record", 3, 1, 5, 1)

	fresh := (&Record{Seq: 6, Method: mirai.MethodSYN, Target: bn.victim, Until: until}).Encode(priv)
	bot.handleRecord(fresh)
	check("fresher record", 4, 2, 6, 1)
	bot.handleRecord(rec)
	check("superseded record", 5, 2, 6, 1)
}

// TestFleetVerifiesOncePerRecord: polls answered from each bot's own
// replica and repeat STORE pushes cost no signature check, so one
// published record is verified at most once per bot however many
// poll periods pass.
func TestFleetVerifiesOncePerRecord(t *testing.T) {
	bn := newBotnet(t, 21, 10)
	bn.runFor(t, 30*sim.Second)
	pollsBefore := 0
	for _, b := range bn.bots {
		pollsBefore += b.Polls
	}
	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, bn.sched.Now()+5*sim.Minute)
	bn.runFor(t, 60*sim.Second)

	verifies, polls := 0, -pollsBefore
	for i, b := range bn.bots {
		if b.CommandsSeen != 1 {
			t.Fatalf("bot %d saw %d commands, want 1", i, b.CommandsSeen)
		}
		verifies += b.Verifies
		polls += b.Polls
	}
	t.Logf("polls=%d verifies=%d", polls, verifies)
	if verifies > len(bn.bots) {
		t.Fatalf("%d signature checks for %d bots × 1 record", verifies, len(bn.bots))
	}
	if polls < 4*verifies {
		t.Fatalf("%d polls after publish against %d verifies: want polls several times larger", polls, verifies)
	}
}

func TestFresherRecordSupersedes(t *testing.T) {
	bn := newBotnet(t, 21, 6)
	bn.runFor(t, 30*sim.Second)

	v1End := bn.sched.Now() + 10*sim.Minute
	bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, v1End)
	bn.runFor(t, 30*sim.Second)

	// Re-target: fresh record, new method.
	victim2 := netip.AddrPortFrom(bn.seedC.Node().Addr4(), 443)
	bn.seeder.PublishAttack(mirai.MethodSYN, victim2, v1End)
	bn.runFor(t, 30*sim.Second)
	for i, b := range bn.bots {
		if b.CommandsSeen != 2 {
			t.Fatalf("bot %d saw %d commands, want 2", i, b.CommandsSeen)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sig := func() string {
		bn := newBotnet(t, 21, 8)
		bn.runFor(t, 30*sim.Second)
		bn.seeder.PublishAttack(mirai.MethodUDPPlain, bn.victim, bn.sched.Now()+2*sim.Minute)
		bn.runFor(t, 90*sim.Second)
		s := ""
		for i, b := range bn.bots {
			s += fmt.Sprintf("%d:%d:%d:%d;", i, b.PacketsSent(), b.Polls, b.Node().RPCsSent)
		}
		return s + fmt.Sprintf("seed:%d", bn.seeder.Contacts)
	}
	a, b := sig(), sig()
	if a != b {
		t.Fatalf("same-seed runs diverged:\n%s\n%s", a, b)
	}
}

// BenchmarkHandleRecordRepeat prices one delivery of a record the bot
// already holds: "identical" is a byte-equal repeat (memo hit),
// "stale" a distinct older record that still pays the ed25519 check.
func BenchmarkHandleRecordRepeat(b *testing.B) {
	keySeed, _ := testKey()
	_, priv := DeriveKey(keySeed)
	for _, tc := range []struct {
		name string
		seq  uint64
	}{{"identical", 5}, {"stale", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			bn := newBotnet(b, 21, 1)
			bn.runFor(b, sim.Second)
			bot := bn.bots[0]
			until := bn.sched.Now() + sim.Minute
			bot.handleRecord((&Record{Seq: 5, Method: mirai.MethodUDPPlain, Target: bn.victim, Until: until}).Encode(priv))
			rec := (&Record{Seq: tc.seq, Method: mirai.MethodUDPPlain, Target: bn.victim, Until: until}).Encode(priv)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bot.handleRecord(rec)
			}
			b.StopTimer()
			if bot.CommandsSeen != 1 {
				b.Fatalf("CommandsSeen = %d, want 1", bot.CommandsSeen)
			}
		})
	}
}
