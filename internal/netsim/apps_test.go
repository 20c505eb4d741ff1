package netsim

import (
	"net/netip"
	"testing"

	"ddosim/internal/obs/obstest"
	"ddosim/internal/sim"
)

func TestOnOffAppAlternatesAndSends(t *testing.T) {
	sched, _, star := newStar(t, 7)
	src := star.AttachHost("src", 10*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 10*Mbps, sim.Millisecond, 0)
	sink, err := InstallSink(dst, 80)
	if err != nil {
		t.Fatal(err)
	}
	secs := obstest.Seconds(sched, sink.RxBytes)
	app, err := InstallOnOff(src, OnOffConfig{
		Dst:    netip.AddrPortFrom(dst.Addr4(), 80),
		Rate:   200 * Kbps,
		MeanOn: 2 * sim.Second, MeanOff: 2 * sim.Second,
		PacketBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if app.PacketsSent == 0 || sink.RxPackets() == 0 {
		t.Fatalf("sent=%d received=%d", app.PacketsSent, sink.RxPackets())
	}
	// Duty cycle ~50%: the average rate over 120 s should be roughly
	// half the ON rate (wire-size accounting adds headers).
	perSec := secs(0, 120)
	_, avg := ReceivedKbps(perSec)
	if avg < 50 || avg > 180 {
		t.Fatalf("average rate %.1f kbps, want ~100-120 (50%% duty at 200 kbps)", avg)
	}
	// There must be quiet seconds (OFF periods) and busy ones.
	quiet, busy := 0, 0
	for _, b := range perSec {
		if b == 0 {
			quiet++
		} else {
			busy++
		}
	}
	if quiet == 0 || busy == 0 {
		t.Fatalf("no alternation: quiet=%d busy=%d", quiet, busy)
	}
}

func TestOnOffStop(t *testing.T) {
	sched, _, star := newStar(t, 7)
	src := star.AttachHost("src", 10*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 10*Mbps, sim.Millisecond, 0)
	if _, err := InstallSink(dst, 80); err != nil {
		t.Fatal(err)
	}
	app, err := InstallOnOff(src, OnOffConfig{Dst: netip.AddrPortFrom(dst.Addr4(), 80)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	app.Stop()
	sent := app.PacketsSent
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if app.PacketsSent != sent {
		t.Fatal("app kept sending after Stop")
	}
	if app.On() && app.running {
		t.Fatal("inconsistent state after Stop")
	}
}

func TestOnOffConfigValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := New(sched)
	star := NewStar(w)
	src := star.AttachHost("src", Mbps, 0, 0)
	if _, err := InstallOnOff(src, OnOffConfig{}); err == nil {
		t.Fatal("invalid destination accepted")
	}
	// Defaults applied for the rest.
	app, err := InstallOnOff(src, OnOffConfig{Dst: netip.MustParseAddrPort("10.0.0.9:80")})
	if err != nil {
		t.Fatal(err)
	}
	if app.rate != 100*Kbps || app.packetBytes != 512 {
		t.Fatalf("defaults = %v %d", app.rate, app.packetBytes)
	}
}
