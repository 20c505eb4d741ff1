package netsim

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/sim"
)

// Sharded-network determinism: a star topology with cross-shard UDP
// traffic, loss, drop-tail pressure, and flow accounting must produce
// byte-identical artifacts at 1, 2, 4, and 8 shards.

const shardNetHosts = 6

func runShardNet(t *testing.T, seed int64, shards int) string {
	t.Helper()
	const L = 2 * sim.Millisecond
	set := sim.NewShardSet(seed, shards, L)
	w := New(set.CtlSched())
	w.EnableSharding(set)

	// Canonical LP order: router first, then hosts — the assignment
	// function may depend on the shard count, the order may not.
	w.SetNextLP(set.NewLP(0))
	star := NewStar(w)
	hosts := make([]*Node, shardNetHosts)
	socks := make([]*UDPSocket, shardNetHosts)
	for i := range hosts {
		w.SetNextLP(set.NewLP(i % shards))
		hosts[i] = star.AttachHost(fmt.Sprintf("h%d", i), 10*Mbps, L, 8)
	}
	w.EnableFlows(FlowConfig{IdleTimeout: 50 * sim.Millisecond, SweepPeriod: 10 * sim.Millisecond})
	// Degrade one router-side device so the receive path draws RNG.
	star.RouterDeviceFor(hosts[2]).SetLossRate(0.2)

	for i, h := range hosts {
		i, h := i, h
		set.WithLP(h.LP(), func() {
			var err error
			socks[i], err = h.BindUDP(9000+uint16(i), func(src netip.AddrPort, payload []byte, pad int) {})
			if err != nil {
				t.Fatalf("BindUDP: %v", err)
			}
			var tick func()
			n := 0
			tick = func() {
				n++
				dst := hosts[(i+1)%len(hosts)]
				socks[i].SendPadded(netip.AddrPortFrom(dst.Addr4(), 9000+uint16((i+1)%len(hosts))), []byte("ping"), 200+n)
				if n < 50 {
					jitter := sim.Time(h.Sched().RNG().Int63n(int64(2 * sim.Millisecond)))
					h.Sched().Schedule(700*sim.Microsecond+jitter, tick)
				}
			}
			h.Sched().Schedule(sim.Time(i+1)*300*sim.Microsecond, tick)
		})
	}

	if err := set.Run(300 * sim.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	w.StopFlows()
	w.FlushFlows(set.Now())

	var sb strings.Builder
	st := w.Stats()
	fmt.Fprintf(&sb, "tx=%d bytes=%d drops=%d queued=%d peak=%d uids=%d maxframe=%d\n",
		st.TxFrames, st.TxBytes, st.Drops, st.QueuedNow, st.PeakQueued, st.PacketUIDs, st.MaxFrameLen)
	fs := w.FlowTableStatsTotal()
	fmt.Fprintf(&sb, "flows created=%d exported=%d evicted=%d\n", fs.Created, fs.Exported, fs.Evicted)
	for i, s := range socks {
		fmt.Fprintf(&sb, "sock%d tx=%d rx=%d rxbytes=%d\n", i, s.TxDatagrams, s.RxDatagrams, s.RxBytes)
	}
	if err := w.FlowDataset().WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return sb.String()
}

func TestShardedNetworkByteIdentical(t *testing.T) {
	ref := runShardNet(t, 7, 1)
	if !strings.Contains(ref, "udp") {
		t.Fatalf("reference artifact has no flow records:\n%s", ref)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		got := runShardNet(t, 7, shards)
		if got != ref {
			t.Fatalf("shards=%d diverged:\nref:\n%s\ngot:\n%s", shards, ref, got)
		}
	}
}

// TestShardedNetworkRace gives the race detector a multi-worker packet
// workload; correctness is asserted above.
func TestShardedNetworkRace(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runShardNet(t, seed, 4)
	}
}
