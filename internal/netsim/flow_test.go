package netsim

import (
	"net/netip"
	"testing"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// flowStar builds a star with flow accounting into an obs.FlowBuffer,
// plus a src host with an unbound-port UDP socket and a dst host
// listening on port 80.
func flowStar(t testing.TB, cfg FlowConfig) (*sim.Scheduler, *Network, *obs.FlowBuffer, *UDPSocket, netip.AddrPort) {
	t.Helper()
	sched, w, star := newStar(t, 1)
	buf := &obs.FlowBuffer{}
	cfg.Sink = buf
	w.EnableFlows(cfg)
	src := star.AttachHost("src", 100*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)
	if _, err := dst.BindUDP(80, nil); err != nil {
		t.Fatal(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sched, w, buf, sock, netip.AddrPortFrom(dst.Addr4(), 80)
}

func TestFlowTableIdleExpiry(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t, FlowConfig{IdleTimeout: 2 * sim.Second})

	for i := 0; i < 5; i++ {
		sock.SendPadded(target, nil, 100)
		if err := sched.Run(sched.Now() + 100*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if w.Flows().Active() != 1 {
		t.Fatalf("active=%d, want 1", w.Flows().Active())
	}
	lastSend := sched.Now() - 100*sim.Millisecond

	// Run past the idle timeout; the sweeper closes the flow.
	if err := sched.Run(sched.Now() + 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	if w.Flows().Active() != 0 {
		t.Fatalf("active=%d after idle, want 0", w.Flows().Active())
	}
	w.Flows().FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != 1 {
		t.Fatalf("records=%d, want 1: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.Reason != obs.FlowIdle {
		t.Fatalf("reason=%q, want idle", r.Reason)
	}
	if r.Packets != 5 {
		t.Fatalf("packets=%d, want 5", r.Packets)
	}
	wantBytes := 5 * uint64(etherHeaderBytes+ipv4HeaderBytes+udpHeaderBytes+100)
	if r.Bytes != wantBytes {
		t.Fatalf("bytes=%d, want %d", r.Bytes, wantBytes)
	}
	if r.EndUS != int64(lastSend/sim.Microsecond) {
		t.Fatalf("end_us=%d, want %d (last activity)", r.EndUS, int64(lastSend/sim.Microsecond))
	}
	if r.Label != "benign" {
		t.Fatalf("label=%q, want benign", r.Label)
	}
	if r.Proto != "udp" {
		t.Fatalf("proto=%q", r.Proto)
	}
}

func TestFlowTableActiveCheckpoint(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t, FlowConfig{
		ActiveTimeout: 3 * sim.Second,
		IdleTimeout:   100 * sim.Second, // keep idle expiry out of the way
	})

	// Send every 500ms for 10s: the flow stays continuously active, so
	// only the active timeout can close records.
	for i := 0; i < 20; i++ {
		sock.SendPadded(target, nil, 100)
		if err := sched.Run(sched.Now() + 500*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())

	recs := buf.Records()
	if len(recs) < 3 {
		t.Fatalf("records=%d, want >=3 (checkpoints + final)", len(recs))
	}
	var pkts uint64
	for i, r := range recs {
		pkts += r.Packets
		wantReason := obs.FlowActive
		if i == len(recs)-1 {
			wantReason = obs.FlowFinal
		}
		if r.Reason != wantReason {
			t.Fatalf("record %d reason=%q, want %q", i, r.Reason, wantReason)
		}
		if (r.EndUS-r.StartUS) > int64(3*sim.Second/sim.Microsecond) && r.Reason == obs.FlowActive {
			t.Fatalf("checkpoint %d spans %dus > active timeout", i, r.EndUS-r.StartUS)
		}
	}
	if pkts != 20 {
		t.Fatalf("total packets across records=%d, want 20", pkts)
	}
}

func TestFlowTableLabelRules(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t, FlowConfig{IdleTimeout: sim.Second})
	attacker := netip.MustParseAddr("10.9.9.9")
	w.Flows().AddLabelRule(FlowLabelRule{Addr: target.Addr(), Port: 80, Label: "attack"})
	w.Flows().AddLabelRule(FlowLabelRule{Addr: attacker, Label: "cnc"})

	sock.SendPadded(target, nil, 64) // matches rule 1 (dst addr + port 80)
	if err := sched.Run(sched.Now() + 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != 1 || recs[0].Label != "attack" {
		t.Fatalf("records %+v, want one attack-labeled flow", recs)
	}
}

func TestFlowTableEviction(t *testing.T) {
	sched, w, buf, sock, _ := flowStar(t, FlowConfig{
		MaxFlows:    4,
		IdleTimeout: 100 * sim.Second,
		SweepPeriod: 50 * sim.Second,
	})
	base := netip.MustParseAddr("10.0.7.1")
	addr := base
	for i := 0; i < 6; i++ {
		sock.SendPadded(netip.AddrPortFrom(addr, 80), nil, 64)
		addr = addr.Next()
		if err := sched.Run(sched.Now() + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	ft := w.Flows()
	if ft.Active() != 4 {
		t.Fatalf("active=%d, want 4 (capped)", ft.Active())
	}
	st := ft.Stats()
	if st.Evicted != 2 {
		t.Fatalf("evicted=%d, want 2", st.Evicted)
	}
	ft.Stop()
	ft.FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != 6 {
		t.Fatalf("records=%d, want 6", len(recs))
	}
	// The two oldest flows were evicted, in creation order.
	if recs[0].Reason != obs.FlowEvict || recs[1].Reason != obs.FlowEvict {
		t.Fatalf("oldest records %+v, want evict reason", recs[:2])
	}
	if recs[0].Dst.Addr() != base {
		t.Fatalf("first evicted dst=%v, want %v", recs[0].Dst.Addr(), base)
	}
}

// TestFlowTableSlotReuseAfterSweep pins the free-list discipline: a
// slot freed by expiry must be reusable without corrupting the
// creation-order list.
func TestFlowTableSlotReuseAfterSweep(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t, FlowConfig{IdleTimeout: sim.Second})

	sock.SendPadded(target, nil, 64)
	if err := sched.Run(sched.Now() + 5*sim.Second); err != nil { // expires
		t.Fatal(err)
	}
	sock.SendPadded(target, nil, 64) // same key again: new flow, reused slot
	sock.SendPadded(netip.AddrPortFrom(target.Addr(), 81), nil, 64)
	if err := sched.Run(sched.Now() + 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != 3 {
		t.Fatalf("records=%d, want 3: %+v", len(recs), recs)
	}
	for i, r := range recs {
		if r.Packets != 1 {
			t.Fatalf("record %d packets=%d, want 1", i, r.Packets)
		}
		if r.Reason != obs.FlowIdle {
			t.Fatalf("record %d reason=%q, want idle", i, r.Reason)
		}
	}
}

func TestFlowTableTCPFlagsAccumulate(t *testing.T) {
	sched, w, star := newStar(t, 1)
	buf := &obs.FlowBuffer{}
	w.EnableFlows(FlowConfig{Sink: buf, IdleTimeout: sim.Second})
	src := star.AttachHost("src", 100*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)

	sp := netip.AddrPortFrom(src.Addr4(), 1234)
	dp := netip.AddrPortFrom(dst.Addr4(), 80)
	for _, fl := range []TCPFlags{FlagSYN, FlagACK} {
		pkt := w.AllocPacket()
		pkt.Proto = ProtoTCP
		pkt.Src, pkt.Dst = sp, dp
		pkt.Pad = 10
		pkt.SetTCP(fl, 0, 0)
		src.SendPacket(pkt)
	}
	if err := sched.Run(sched.Now() + 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	// The dst's TCP host answers with a RST, so a reverse flow exists
	// too; pick the forward one.
	var fwd *obs.FlowRecord
	for i := range buf.Records() {
		if r := &buf.Records()[i]; r.Src == sp {
			fwd = r
		}
	}
	if fwd == nil {
		t.Fatalf("no forward flow in %+v", buf.Records())
	}
	want := uint8(FlagSYN | FlagACK)
	if fwd.TCPFlags != want {
		t.Fatalf("tcp_flags=%b, want %b", fwd.TCPFlags, want)
	}
	if fwd.Proto != "tcp" {
		t.Fatalf("proto=%q", fwd.Proto)
	}
}

// TestUDPFloodPathZeroAllocWithFlows pins the tentpole's hot-path
// guarantee: with flow accounting enabled, the steady-state per-packet
// cost of the UDP flood path allocates nothing. CI asserts on this
// test by name.
func TestUDPFloodPathZeroAllocWithFlows(t *testing.T) {
	if SanitizerEnabled() {
		t.Skip("simdebug sanitizer records call sites and allocates")
	}
	sched, w, star := newStar(t, 1)
	w.EnableFlows(FlowConfig{Sink: &obs.FlowBuffer{}})
	src := star.AttachHost("src", 100*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)
	if _, err := dst.BindUDP(80, nil); err != nil {
		t.Fatal(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := netip.AddrPortFrom(dst.Addr4(), 80)

	step := func() {
		sock.SendPadded(target, nil, 512)
		if err := sched.Run(sched.Now() + 100*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the packet pool, flow table, and queue slots.
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("flood path allocates %.2f/op with flows enabled, want 0", avg)
	}
}
