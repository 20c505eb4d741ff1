package netsim

import (
	"bytes"
	"net/netip"
	"testing"

	"ddosim/internal/sim"
)

func TestCaptureRecordsDeliveredPackets(t *testing.T) {
	sched, _, star := newStar(t, 3)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)
	cap := StartCapture(b, 0)
	if _, err := b.BindUDP(9, nil); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	dst := netip.AddrPortFrom(b.Addr4(), 9)
	sock.SendTo(dst, []byte("one"))
	sock.SendPadded(dst, nil, 500)
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	entries := cap.Entries()
	if len(entries) != 2 || cap.Total() != 2 {
		t.Fatalf("entries = %d, total = %d", len(entries), cap.Total())
	}
	if entries[0].Bytes != 3 || entries[1].Bytes != 500 {
		t.Fatalf("sizes = %d/%d", entries[0].Bytes, entries[1].Bytes)
	}
	if entries[0].Proto != ProtoUDP || entries[0].Dst != dst {
		t.Fatalf("entry = %+v", entries[0])
	}
	if got := cap.BytesBetween(0, sim.Second); got != 503 {
		t.Fatalf("BytesBetween = %d", got)
	}
	if cap.String() == "" {
		t.Fatal("empty listing")
	}
}

func TestCaptureRingBuffer(t *testing.T) {
	sched, _, star := newStar(t, 3)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 100*Mbps, sim.Millisecond, 0)
	cap := StartCapture(b, 5)
	if _, err := b.BindUDP(9, nil); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	for i := 0; i < 12; i++ {
		sock.SendPadded(netip.AddrPortFrom(b.Addr4(), 9), nil, 10+i)
	}
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if len(cap.Entries()) != 5 {
		t.Fatalf("ring kept %d entries", len(cap.Entries()))
	}
	if cap.Total() != 12 || cap.Dropped() != 7 {
		t.Fatalf("total=%d dropped=%d", cap.Total(), cap.Dropped())
	}
	// The ring holds the *last* five packets.
	if cap.Entries()[4].Bytes != 21 {
		t.Fatalf("last entry = %+v", cap.Entries()[4])
	}
}

func TestCaptureFilterProto(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	cap := StartCapture(server, 0)
	if _, err := server.ListenTCP(23, func(c *TCPConn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.BindUDP(9, nil); err != nil {
		t.Fatal(err)
	}
	sock, _ := client.BindUDP(0, nil)
	sock.SendTo(netip.AddrPortFrom(server.Addr4(), 9), []byte("u"))
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err == nil {
			_ = c.Send([]byte("t"))
		}
	})
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := cap.FilterProto(ProtoUDP); len(got) != 1 {
		t.Fatalf("udp entries = %d", len(got))
	}
	if got := cap.FilterProto(ProtoTCP); len(got) < 2 { // SYN, ACK, data
		t.Fatalf("tcp entries = %d", len(got))
	}
}

func TestLossRateDropsFraction(t *testing.T) {
	sched, _, star := newStar(t, 3)
	a := star.AttachHost("a", 100*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 100*Mbps, sim.Millisecond, 0)
	b.DefaultDevice().SetLossRate(0.3)
	got := 0
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	const n = 2000
	dst := netip.AddrPortFrom(b.Addr4(), 9)
	for i := 0; i < n; i++ {
		// Paced sends so the drop-tail queue never overflows: only
		// the configured loss should drop packets.
		sched.ScheduleAt(sim.Time(i)*sim.Millisecond, func() {
			sock.SendPadded(dst, nil, 100)
		})
	}
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	frac := float64(got) / n
	if frac < 0.62 || frac > 0.78 {
		t.Fatalf("delivered fraction %v with 30%% loss", frac)
	}
	if b.DefaultDevice().Stats().LossDrops == 0 {
		t.Fatal("no loss drops recorded")
	}
	if b.DefaultDevice().LossRate() != 0.3 {
		t.Fatal("LossRate accessor")
	}
}

func TestTCPSurvivesLossyLink(t *testing.T) {
	// Go-back-N must deliver a transfer intact over a 10%-loss link.
	sched, client, server, _ := tcpPair(t)
	server.DefaultDevice().SetLossRate(0.10)
	client.DefaultDevice().SetLossRate(0.10)
	payload := bytes.Repeat([]byte("resilient"), 2000) // 18 KB
	var got bytes.Buffer
	if _, err := server.ListenTCP(80, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) { got.Write(data) })
	}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 80), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(payload); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("lossy transfer corrupted: %d of %d bytes", got.Len(), len(payload))
	}
}

func TestLossRateOneDropsEveryFrame(t *testing.T) {
	// p = 1.0 is a dead receive path: every frame drops, and because
	// Float64 draws from [0,1) the device still burns exactly one RNG
	// draw per frame — the sequence seen by every p < 1 consumer is
	// unchanged.
	sched, _, star := newStar(t, 3)
	a := star.AttachHost("a", 100*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 100*Mbps, sim.Millisecond, 0)
	b.DefaultDevice().SetLossRate(1.0)
	got := 0
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	const n = 200
	dst := netip.AddrPortFrom(b.Addr4(), 9)
	for i := 0; i < n; i++ {
		sched.ScheduleAt(sim.Time(i)*sim.Millisecond, func() {
			sock.SendPadded(dst, nil, 100)
		})
	}
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("%d frames delivered at loss 1.0", got)
	}
	if drops := b.DefaultDevice().Stats().LossDrops; drops != n {
		t.Fatalf("LossDrops = %d, want %d (one draw per frame)", drops, n)
	}
}

func TestSetLossRateValidation(t *testing.T) {
	_, _, star := newStar(t, 3)
	a := star.AttachHost("a", Mbps, 0, 0)
	// The closed interval [0,1] is legal: 1.0 models a dead receive
	// path (fault injection's worst-case loss burst).
	a.DefaultDevice().SetLossRate(1.0)
	a.DefaultDevice().SetLossRate(0)
	defer func() {
		if recover() == nil {
			t.Fatal("loss rate 1.5 accepted")
		}
	}()
	a.DefaultDevice().SetLossRate(1.5)
}

func TestCaptureRingWrapsRepeatedly(t *testing.T) {
	// The ring must stay consistent (order preserved, oldest evicted)
	// across many full wraparounds, not just the first overflow.
	sched, _, star := newStar(t, 3)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 100*Mbps, sim.Millisecond, 0)
	cap := StartCapture(b, 4)
	if _, err := b.BindUDP(9, nil); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	const sent = 23
	for i := 0; i < sent; i++ {
		sock.SendPadded(netip.AddrPortFrom(b.Addr4(), 9), nil, 100+i)
	}
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if cap.Len() != 4 {
		t.Fatalf("ring kept %d entries", cap.Len())
	}
	if cap.Total() != sent || cap.Dropped() != sent-4 {
		t.Fatalf("total=%d dropped=%d", cap.Total(), cap.Dropped())
	}
	for i, e := range cap.Entries() {
		if want := 100 + sent - 4 + i; e.Bytes != want {
			t.Fatalf("entry %d bytes = %d, want %d", i, e.Bytes, want)
		}
	}
}
