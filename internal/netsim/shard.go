package netsim

// Sharded-mode plumbing: the per-shard network context and the wiring
// that binds nodes to logical processes of a sim.ShardSet.
//
// In sharded mode every Node belongs to exactly one LP, every LP to
// exactly one shard, and all mutable per-packet state a node's
// handlers touch — pool, aggregate counters, flow table, trace buffer,
// confinement cell — lives in the netShard context of that shard, so a
// worker goroutine never writes another worker's memory. The only
// cross-shard channel is the kernel mailbox (NetDevice.finishTx hands
// the frame to the peer's LP as a timestamped message). Per-shard
// artifacts are merged deterministically after the run
// (obs.MergeTracers / obs.MergeFlowBuffers), so shard count stays
// unobservable in every output byte.

import (
	"fmt"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// netShard is the per-shard slice of the Network's mutable state.
type netShard struct {
	stats   NetworkStats // partial aggregates; summed by Network.Stats
	pp      pktPool
	flows   *FlowTable
	flowBuf *obs.FlowBuffer
	trace   *obs.Tracer
	conf    confCell
}

// EnableSharding binds the network to a sharded kernel. Must be called
// before any NewNode; from then on every NewNode consumes the LP
// installed by SetNextLP and pins the node to that LP's shard.
func (w *Network) EnableSharding(set *sim.ShardSet) {
	if len(w.nodes) > 0 {
		panic("netsim: EnableSharding after nodes were created")
	}
	if w.set != nil {
		panic("netsim: EnableSharding called twice")
	}
	w.set = set
	w.ctxs = make([]*netShard, set.NumShards())
	for i := range w.ctxs {
		w.ctxs[i] = &netShard{}
	}
	if w.trace != nil {
		w.initShardTracers()
	}
}

// Sharded reports whether the network runs on a sharded kernel.
func (w *Network) Sharded() bool { return w.set != nil }

// ShardSet returns the bound kernel, or nil in legacy mode.
func (w *Network) ShardSet() *sim.ShardSet { return w.set }

// SetNextLP installs the logical process the next NewNode call will
// bind to. Deliberately explicit and one-shot: node→LP assignment is
// part of the determinism contract and must be decided by the caller
// in a canonical, partition-independent order.
func (w *Network) SetNextLP(lp *sim.LP) { w.nextLP = lp }

// initShardTracers gives each shard context a private trace buffer
// stamped with (LP index, per-LP emission seq) so the merged stream
// orders independently of the shard count. Per-shard buffers are
// uncapped: a count-based drop cap per buffer would discard different
// events at different shard counts, so obs.MergeTracers applies the
// run's main-tracer cap once, to the merged stream.
func (w *Network) initShardTracers() {
	for i, c := range w.ctxs {
		if c.trace != nil {
			continue
		}
		tr := obs.NewTracer()
		tr.SetMaxEvents(0)
		sched := w.set.Shard(i).Sched()
		tr.SetStamper(func() (uint32, uint64) {
			if lp := sched.CurLP(); lp != nil {
				return lp.Idx(), lp.NextEmit()
			}
			return 0, 0 // unattributed event; unreachable in practice
		})
		c.trace = tr
	}
}

// ShardTracers returns the per-shard trace buffers in shard order
// (nil entries when observability is not attached), for the final
// deterministic merge.
func (w *Network) ShardTracers() []*obs.Tracer {
	out := make([]*obs.Tracer, len(w.ctxs))
	for i, c := range w.ctxs {
		out[i] = c.trace
	}
	return out
}

// bindShard pins a freshly-created node to the LP installed by
// SetNextLP, consuming it.
func (w *Network) bindShard(n *Node) {
	lp := w.nextLP
	if lp == nil {
		panic(fmt.Sprintf("netsim: NewNode(%q) in sharded mode without SetNextLP", n.name))
	}
	w.nextLP = nil
	sh := lp.Shard()
	if sh.ID() >= len(w.ctxs) {
		panic(fmt.Sprintf("netsim: NewNode(%q) on the control shard; nodes must live on worker shards", n.name))
	}
	n.lp = lp
	n.shardID = sh.ID()
	n.ctx = w.ctxs[n.shardID]
	n.sched = sh.Sched()
}

// LP returns the node's logical process, or nil in legacy mode.
func (n *Node) LP() *sim.LP { return n.lp }

// ShardID returns the node's shard, or -1 in legacy mode.
func (n *Node) ShardID() int { return n.shardID }

// nextUID issues a packet id. Sharded mode namespaces the counter per
// node — (node index + 1) << 40 | per-node sequence — so ids are unique
// and id issuance is a pure function of each node's own activity,
// independent of cross-shard interleaving.
func (n *Node) nextUID() uint64 {
	if n.ctx != nil {
		n.uidSeq++
		return uint64(n.idx+1)<<40 | n.uidSeq
	}
	return n.net.NextUID()
}

// NextUID issues a unique packet id from this node's namespace.
func (n *Node) NextUID() uint64 { return n.nextUID() }

// statsCell returns the aggregate-counter cell the node's hot path
// writes: its shard context's in sharded mode, the network-wide one
// otherwise.
func (n *Node) statsCell() *NetworkStats {
	if n.ctx != nil {
		return &n.ctx.stats
	}
	return &n.net.stats
}

// tracer returns the trace buffer the node's hot path writes, or nil.
func (n *Node) tracer() *obs.Tracer {
	if n.ctx != nil {
		return n.ctx.trace
	}
	return n.net.trace
}

// countTx tallies one transmitted frame. The obs counters are atomic
// and order-free, so sharded workers may hit them concurrently.
func (n *Node) countTx(frameLen int, proto Protocol) {
	st := n.statsCell()
	st.TxFrames++
	st.TxBytes += uint64(frameLen)
	if frameLen > st.MaxFrameLen {
		st.MaxFrameLen = frameLen
	}
	w := n.net
	w.ctrTxFrames.Inc()
	w.ctrTxBytes.Add(uint64(frameLen))
	if int(proto) < len(w.ctrTxByProto) {
		w.ctrTxByProto[proto].Add(uint64(frameLen))
	}
}

// dropReason says why a node dropped a frame.
type dropReason uint8

const (
	dropTail dropReason = iota // device queue full
	dropLoss                   // random receive loss
	numDropReasons
)

var dropReasonNames = [numDropReasons]string{dropTail: "drop-tail", dropLoss: "loss"}

// dropTrace is a node's queue-drop event kind for one drop reason,
// interned on the node's first such drop while tracing. args backs the
// kind's argument list, so building the kind allocates only the kind.
type dropTrace struct {
	kind *obs.EventKind
	args [2]obs.KV
}

// countDrop tallies one dropped frame at this node, both in the
// aggregate stats and — when observability is attached — as a counter
// increment and a trace point event identifying where the drop
// happened.
func (n *Node) countDrop(r dropReason) {
	n.statsCell().Drops++
	n.net.ctrDrops.Inc()
	if tr := n.tracer(); tr != nil {
		d := &n.drops[r]
		if d.kind == nil {
			d.args = [2]obs.KV{{K: "node", V: n.name}, {K: "reason", V: dropReasonNames[r]}}
			d.kind = obs.NewEventKind(obs.CatNet, "queue-drop", d.args[:]...)
		}
		tr.Emit(n.sched.Now(), d.kind)
	}
}

// addQueued adjusts the buffered-frame count. Legacy mode also tracks
// the global peak and mirrors both into gauges; sharded mode skips the
// gauges on the hot path (a racing last-write-wins gauge would be
// partition-dependent — see Network.SyncGauges) and derives the peak
// from per-device high-water marks instead.
func (n *Node) addQueued(delta int) {
	st := n.statsCell()
	st.QueuedNow += delta
	if n.ctx != nil {
		return
	}
	if st.QueuedNow > st.PeakQueued {
		st.PeakQueued = st.QueuedNow
	}
	n.net.gaugeQueued.Set(float64(st.QueuedNow))
	n.net.gaugePeak.Set(float64(st.PeakQueued))
}

// SyncGauges refreshes the queue-depth gauges from the aggregated
// stats. Sharded mode calls this at barriers (where the aggregate is
// well-defined) instead of on the per-frame hot path.
func (w *Network) SyncGauges() {
	st := w.Stats()
	w.gaugeQueued.Set(float64(st.QueuedNow))
	w.gaugePeak.Set(float64(st.PeakQueued))
}
