package netsim

import (
	"net/netip"
	"testing"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// BenchmarkUDPFloodPath measures the full per-datagram cost of the
// attack hot path — socket send, routing, drop-tail queue, link
// serialization, propagation, sink delivery — the loop a Mirai
// UDP-PLAIN flood drives millions of times per run:
//
//   - flows=off: the classic kernel without flow accounting.
//   - flows=on: the same with flow accounting into an obs.FlowBuffer.
//   - shards=2: the sharded kernel, sender on shard 0 and router and
//     receiver on shard 1, so every datagram crosses the mailbox.
//
// With the packet free list warm the two classic cases do not
// allocate (TestUDPFloodPathZeroAllocWithFlows gates that); shards=2
// reports its mailbox and barrier allocations as measured.
func BenchmarkUDPFloodPath(b *testing.B) {
	b.Run("flows=off", func(b *testing.B) { benchFlood(b, 0, false) })
	b.Run("flows=on", func(b *testing.B) { benchFlood(b, 0, true) })
	b.Run("shards=2", func(b *testing.B) { benchFlood(b, 2, false) })
}

// benchFlood sends padded datagrams src→dst, one per 100 µs of sim
// time, from a self-rescheduling event on src's scheduler (a ShardSet
// runs once, so the stream is driven from inside the kernel rather
// than by stepping it). shards == 0 selects the classic kernel.
func benchFlood(b *testing.B, shards int, flows bool) {
	const (
		linkDelay = sim.Millisecond // also the sharded kernel's lookahead
		gap       = 100 * sim.Microsecond
		drain     = 10 * linkDelay // lets a burst's last datagrams arrive
	)
	var (
		w   *Network
		set *sim.ShardSet
		run func(until sim.Time) error
	)
	place := func(int) {}
	if shards == 0 {
		sched := sim.NewScheduler(1)
		w, run = New(sched), sched.Run
	} else {
		set = sim.NewShardSet(1, shards, linkDelay)
		w, run = New(set.CtlSched()), set.Run
		w.EnableSharding(set)
		place = func(shard int) { w.SetNextLP(set.NewLP(shard)) }
	}
	onNode := func(n *Node, f func()) {
		if set != nil {
			set.WithLP(n.LP(), f)
		} else {
			f()
		}
	}
	place(1)
	star := NewStar(w)
	place(0)
	src := star.AttachHost("src", 100*Mbps, linkDelay, 0)
	place(1)
	dst := star.AttachHost("dst", 100*Mbps, linkDelay, 0)
	var buf *obs.FlowBuffer
	if flows {
		buf = &obs.FlowBuffer{}
		w.EnableFlows(FlowConfig{Sink: buf})
	}

	var rx, tx *UDPSocket
	onNode(dst, func() {
		var err error
		if rx, err = dst.BindUDP(80, nil); err != nil {
			b.Fatal(err)
		}
	})
	sent, limit := 0, 0
	var pump func()
	onNode(src, func() {
		var err error
		if tx, err = src.BindUDP(0, nil); err != nil {
			b.Fatal(err)
		}
		target := netip.AddrPortFrom(dst.Addr4(), 80)
		pump = func() {
			if sent >= limit {
				return
			}
			sent++
			tx.SendPadded(target, nil, 512)
			src.Sched().Schedule(gap, pump)
		}
	})
	burst := func(n int) {
		limit += n
		onNode(src, func() { src.Sched().Schedule(0, pump) })
	}

	// The classic cases run a drained warm-up burst first, so the packet
	// free list, flow table and queue slots are at their steady-state
	// size when the timer starts. A ShardSet cannot pause, so shards=2
	// measures its warm-up too.
	var start sim.Time
	if set == nil {
		const warm = 64
		burst(warm)
		start = warm*gap + drain
		if err := run(start); err != nil {
			b.Fatal(err)
		}
	}
	burst(b.N)
	// Run to a horizon, not to an empty queue: the flow sweeper re-arms
	// forever.
	horizon := start + sim.Time(b.N)*gap + drain
	b.ReportAllocs()
	b.ResetTimer()
	if err := run(horizon); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if tx.TxDatagrams != uint64(limit) || rx.RxDatagrams != uint64(limit) {
		b.Fatalf("sent %d and received %d datagrams, want %d", tx.TxDatagrams, rx.RxDatagrams, limit)
	}
	if !flows {
		return
	}
	w.StopFlows()
	w.FlushFlows(horizon)
	var pkts uint64
	for _, r := range buf.Records() {
		pkts += r.Packets
	}
	if pkts != uint64(limit) {
		b.Fatalf("flow records account %d packets, want %d", pkts, limit)
	}
}
