package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
)

// This file implements the sharded parallel event kernel: a
// conservative (lookahead-synchronized) parallel discrete-event
// runtime in the tradition of Chandy-Misra-Bryant null-message-free
// BSP variants. The topology is partitioned into logical processes
// (LPs); each shard owns a set of LPs, a private Scheduler (with its
// own event queue), and one worker goroutine. Shards advance in
// global epochs of width L — the lookahead, the minimum cross-LP
// link latency — and exchange timestamped messages through
// per-(src,dst) mailbox lanes that are drained at epoch barriers in a
// deterministic merge order: (timestamp, source LP, per-source
// sequence).
//
// Determinism contract: a run's observable behaviour is a function of
// (seed, topology) only — NOT of the shard count. Three mechanisms
// make shard count unobservable:
//
//  1. Per-LP RNG streams, split from the root seed by stable LP
//     index, so no draw depends on cross-LP interleaving.
//  2. ALL cross-LP sends go through the mailbox path, even when both
//     LPs happen to share a shard (including the single-shard case),
//     so delivery timing and ordering never depend on co-location.
//  3. Mailbox messages are sorted by the partition-independent key
//     (At, SrcLP, SrcSeq) before insertion, and within one scheduler
//     the (time, insertion-seq) total order then reproduces that key
//     order; events of *different* LPs that interleave differently
//     across shard counts touch disjoint state (the confinement
//     property established by the shardconfine/crossnode analyzers),
//     so their relative order is unobservable.
//
// The conservative safety argument: a message sent at time s carries
// a delivery time At >= s + L. The sender's epoch is [t_k, t_k+L), so
// At >= t_k + L — at or beyond the epoch end. Collected at the next
// barrier, the message can never be in the receiver's past.
//
// Control plane: besides the worker shards, a ShardSet owns one extra
// "control" shard with its own scheduler but no goroutine. Its events
// — churn evaluation, fault injection, watchers, periodic sampling —
// are executed inline by the coordinator at epoch barriers, with the
// whole world stopped, so control code may read and mutate any
// shard's state directly, with zero routing or shadow-state
// complexity. A control event with timestamp t runs at the first
// barrier B >= t with Now() == t (the exact drawn timestamp), so its
// observable timing is preserved; only its *view* of the partition
// state lags by < L, the same conservative slack every cross-LP
// message already carries. Messages TO the control LP are exempt from
// the lookahead floor — a worker LP may send one carrying its current
// timestamp, and it is guaranteed to surface at the next barrier,
// which is the earliest moment control code could run anyway.

// LP is a logical process: the unit of partitioning and the unit of
// determinism. Every simulation entity (a network node and everything
// that executes "on" it) belongs to exactly one LP; an LP belongs to
// exactly one shard for the lifetime of a run.
type LP struct {
	idx     uint32
	shard   *Shard
	rng     *rand.Rand
	sendSeq uint64 // per-LP message sequence, the merge-order tiebreak
	emitSeq uint64 // per-LP emission sequence for trace merging
}

// Idx reports the LP's stable index (assignment order at build time).
func (lp *LP) Idx() uint32 { return lp.idx }

// Shard reports the shard the LP is pinned to.
func (lp *LP) Shard() *Shard { return lp.shard }

// RNG exposes the LP's private random stream, split deterministically
// from the root seed by LP index. Draws from here are independent of
// shard count and of other LPs' activity.
func (lp *LP) RNG() *rand.Rand { return lp.rng }

// NextEmit returns a monotonically increasing per-LP sequence number.
// The observability layer stamps trace entries with (LP, emit-seq) so
// per-shard trace buffers merge into one deterministic order.
func (lp *LP) NextEmit() uint64 {
	lp.emitSeq++
	return lp.emitSeq
}

// MsgHandler is the delivery callback of a cross-LP message. Using an
// interface with two opaque arguments (rather than a closure) keeps
// the packet hot path allocation-free: the receiver is typically a
// long-lived object (a *netsim.NetDevice) and pointer-shaped args do
// not box.
type MsgHandler interface {
	// HandleMsg runs on the destination LP at the message timestamp.
	HandleMsg(at Time, a, b any)
}

// funcMsg adapts a closure to MsgHandler for low-rate control-plane
// messages where an allocation per message is acceptable.
type funcMsg struct{ fn func(at Time) }

func (f funcMsg) HandleMsg(at Time, _, _ any) { f.fn(at) }

// Msg is one timestamped cross-LP message in a mailbox lane.
type Msg struct {
	At  Time
	Src uint32 // sending LP index
	Seq uint64 // per-sending-LP sequence
	Dst *LP
	H   MsgHandler
	A   any
	B   any
}

// msgBefore is the deterministic merge order of mailbox messages:
// timestamp, then stable source-LP index, then the source's private
// sequence. All three components are partition-independent.
func msgBefore(a, b Msg) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// Shard is one partition of the LP set: a private scheduler, the LPs
// pinned to it, and its outbound mailbox lanes. During an epoch a
// shard is touched only by its worker goroutine; between epochs only
// by the coordinator. That strict alternation is the entire locking
// discipline — there are no locks.
type Shard struct {
	id    int
	set   *ShardSet
	sched *Scheduler
	lps   []*LP

	// out[dst] is the mailbox lane toward shard dst, appended to only
	// by this shard's worker during an epoch and swapped out by the
	// coordinator at the barrier.
	out [][]Msg

	// staged holds the lane slices routed to this shard at the last
	// barrier; the worker sorts and inserts them before running the
	// next epoch.
	staged  [][]Msg
	inbox   []Msg // sort scratch, reused
	openEnd Time  // current epoch end, for the conservative send assert

	cmd  chan shardCmd
	done chan error
}

// ID reports the shard's index within its ShardSet.
func (sh *Shard) ID() int { return sh.id }

// Sched exposes the shard's private scheduler.
func (sh *Shard) Sched() *Scheduler { return sh.sched }

type shardCmd struct {
	until Time
}

// BarrierTask is a callback the coordinator runs at fixed grid times
// while every shard is quiesced at a barrier. Tasks may read and
// mutate any shard's state (the world is stopped) and may schedule
// events on any shard's scheduler; this is where the simulation's
// global control plane (periodic sampling, watchers) lives in sharded
// mode.
type BarrierTask struct {
	Every Time
	Fn    func(at Time)
	next  Time
}

// ShardSet is the sharded runtime: the shard array, the control
// shard, the LP registry, the epoch coordinator, and the barrier-task
// list.
type ShardSet struct {
	seed      int64
	lookahead Time
	shards    []*Shard
	ctl       *Shard   // control shard: drained inline at barriers, no worker
	all       []*Shard // shards + ctl, indexed by mailbox lane id
	ctlLP     *LP      // LP index 0, the control plane's identity
	lps       []*LP
	tasks     []*BarrierTask

	now     Time // barrier position: all shards quiesced at >= now
	running bool
	stopped atomic.Bool
	started bool
}

// NewShardSet builds a sharded runtime with n shards (n >= 1).
// lookahead is the epoch width: the minimum latency of any cross-LP
// interaction. Every cross-LP send must carry a delivery time at least
// lookahead past the send time; Send enforces this at runtime.
func NewShardSet(seed int64, n int, lookahead Time) *ShardSet {
	if n < 1 {
		panic("sim: NewShardSet with n < 1")
	}
	if lookahead <= 0 {
		panic("sim: NewShardSet with non-positive lookahead")
	}
	set := &ShardSet{seed: seed, lookahead: lookahead}
	set.shards = make([]*Shard, n)
	for i := range set.shards {
		sh := &Shard{
			id:    i,
			set:   set,
			sched: NewScheduler(splitSeed(seed, uint64(i)^0x5348415244)),
			out:   make([][]Msg, n+1),
			cmd:   make(chan shardCmd),
			done:  make(chan error),
		}
		sh.sched.worker = true
		set.shards[i] = sh
	}
	// The control shard takes lane id n. It has no worker goroutine:
	// the coordinator runs its scheduler at barriers.
	set.ctl = &Shard{
		id:  n,
		set: set,
		// Fixed stream id: the ctl scheduler's base RNG must not vary
		// with the worker shard count or fallback draws (no current LP)
		// would break shard-count invariance.
		sched: NewScheduler(splitSeed(seed, 0x63746C00)),
		out:   make([][]Msg, n+1),
	}
	set.all = append(append([]*Shard{}, set.shards...), set.ctl)
	// The control LP is created first so it always holds index 0,
	// independent of shard count and topology size.
	set.ctlLP = set.newLPOn(set.ctl)
	return set
}

// splitSeed derives an independent stream seed from the root seed and
// a stable index using a splitmix64 finalizer — the standard way to
// split one seed into many decorrelated streams.
func splitSeed(root int64, idx uint64) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Lookahead reports the epoch width.
func (set *ShardSet) Lookahead() Time { return set.lookahead }

// NumShards reports the shard count.
func (set *ShardSet) NumShards() int { return len(set.shards) }

// Shard returns shard i.
func (set *ShardSet) Shard(i int) *Shard { return set.shards[i] }

// NewLP registers a new logical process on shard shardID and returns
// it. LP indices are assigned in registration order, so registration
// order must itself be partition-independent (register LPs in one
// canonical order regardless of shard count). Index 0 is always the
// control LP; topology LPs start at 1.
func (set *ShardSet) NewLP(shardID int) *LP {
	if set.started {
		panic("sim: NewLP after Run")
	}
	return set.newLPOn(set.shards[shardID])
}

func (set *ShardSet) newLPOn(sh *Shard) *LP {
	lp := &LP{
		idx:   uint32(len(set.lps)),
		shard: sh,
		rng:   rand.New(rand.NewSource(splitSeed(set.seed, uint64(len(set.lps))))),
	}
	set.lps = append(set.lps, lp)
	sh.lps = append(sh.lps, lp)
	return lp
}

// Ctl returns the control shard.
func (set *ShardSet) Ctl() *Shard { return set.ctl }

// CtlSched returns the control shard's scheduler — the home of the
// simulation's control plane in sharded mode. Events scheduled here
// execute at epoch barriers with the world stopped and may touch any
// shard's state directly.
func (set *ShardSet) CtlSched() *Scheduler { return set.ctl.sched }

// CtlLP returns the control LP (always index 0). Worker-side code
// addresses the control plane by sending to it; such sends may carry
// the sender's current timestamp (no lookahead floor applies).
func (set *ShardSet) CtlLP() *LP { return set.ctlLP }

// LPs returns the LP registry in index order.
func (set *ShardSet) LPs() []*LP { return set.lps }

// WithLP runs fn with lp installed as the current LP of its shard's
// scheduler, restoring the previous attribution afterwards. Setup
// code uses this so that events scheduled (and randomness drawn)
// while building an entity are attributed to that entity's LP.
func (set *ShardSet) WithLP(lp *LP, fn func()) {
	s := lp.shard.sched
	prev := s.curLP
	s.curLP = lp
	defer func() { s.curLP = prev }()
	fn()
}

// AddTask registers a barrier task firing every period, starting at
// time period (not zero: time zero is setup). Tasks registered in the
// same order run in the same order at a shared grid time.
func (set *ShardSet) AddTask(period Time, fn func(at Time)) {
	if period <= 0 || period%set.lookahead != 0 {
		panic(fmt.Sprintf("sim: barrier task period %v must be a positive multiple of the lookahead %v", period, set.lookahead))
	}
	set.tasks = append(set.tasks, &BarrierTask{Every: period, Fn: fn, next: period})
}

// Send posts a cross-LP message from lp, for delivery to dst's LP at
// absolute time at. It must be called from within lp's execution (its
// shard's worker during an epoch, or single-threaded setup/barrier
// phases). The conservative contract requires at to land at or beyond
// the sender's current epoch end; violations panic, because they mean
// the lookahead used to build the ShardSet was wrong. Messages to the
// control LP are exempt: the coordinator drains them at the next
// barrier, which by construction is not before at.
func (lp *LP) Send(dst *LP, at Time, h MsgHandler, a, b any) {
	sh := lp.shard
	if sh.set.running && at < sh.openEnd && dst.shard != sh.set.ctl {
		panic(fmt.Sprintf("sim: lookahead violation: LP %d sent a message for t=%v inside its own epoch ending %v", lp.idx, at, sh.openEnd))
	}
	lp.sendSeq++
	lane := &sh.out[dst.shard.id]
	*lane = append(*lane, Msg{At: at, Src: lp.idx, Seq: lp.sendSeq, Dst: dst, H: h, A: a, B: b})
}

// SendFunc is Send with a closure payload, for control-plane messages.
func (lp *LP) SendFunc(dst *LP, at Time, fn func(at Time)) {
	lp.Send(dst, at, funcMsg{fn}, nil, nil)
}

// Stop requests the run loop to halt at the next barrier.
func (set *ShardSet) Stop() { set.stopped.Store(true) }

// Now reports the current barrier position.
func (set *ShardSet) Now() Time { return set.now }

// Processed sums executed events across shards (including the control
// shard). Safe at barriers and after Run.
func (set *ShardSet) Processed() uint64 {
	var n uint64
	for _, sh := range set.all {
		n += sh.sched.Processed()
	}
	return n
}

// Pending sums queued (not cancelled) events across shards, plus
// in-flight mailbox messages (staged at a barrier or still in an
// outbound lane). Safe at barriers and after Run; the value is
// partition-independent because at a barrier the set of pending
// logical events — queued or in flight — is exactly the set of future
// events of all LPs, regardless of how they are grouped.
func (set *ShardSet) Pending() int {
	n := 0
	for _, sh := range set.all {
		n += sh.sched.Pending()
		for _, lane := range sh.staged {
			n += len(lane)
		}
		for _, lane := range sh.out {
			n += len(lane)
		}
	}
	return n
}

// insertStaged sorts the messages staged at the last barrier by the
// deterministic merge key and schedules them on the shard's local
// queue. Scheduler seq numbers are assigned in sorted order, so the
// (time, seq) total order within the scheduler extends the merge
// order.
func (sh *Shard) insertStaged() {
	if len(sh.staged) == 0 {
		return
	}
	sh.inbox = sh.inbox[:0]
	for _, lane := range sh.staged {
		sh.inbox = append(sh.inbox, lane...)
	}
	sh.staged = sh.staged[:0]
	sort.Slice(sh.inbox, func(i, j int) bool { return msgBefore(sh.inbox[i], sh.inbox[j]) })
	for i := range sh.inbox {
		m := &sh.inbox[i]
		if m.At < sh.sched.now {
			panic(fmt.Sprintf("sim: message for t=%v inserted into shard %d past t=%v", m.At, sh.id, sh.sched.now))
		}
		sh.sched.scheduleMsg(m.At, m.Dst, m.H, m.A, m.B)
	}
	for i := range sh.inbox {
		sh.inbox[i] = Msg{} // drop payload references
	}
}

// worker is the shard's goroutine: it alternates with the coordinator
// over the cmd/done channel pair, which doubles as the memory barrier
// making the coordinator's staging writes visible.
func (sh *Shard) worker() {
	for c := range sh.cmd {
		sh.insertStaged()
		err := sh.sched.run(c.until)
		sh.done <- err
	}
}

// drainLanes routes every shard's outbound lanes to the destination
// shards' staging lists and returns the earliest timestamp staged
// toward a *worker* shard — over ALL staged content, not just the
// messages drained by this call. Staged messages can survive a loop
// iteration (a control run or barrier task fires instead of a worker
// epoch), and the epoch decision must keep seeing them until a worker
// epoch consumes them, or the coordinator would advance shard clocks
// past an undelivered message. Control-destined messages are inserted
// into the control scheduler immediately after the drain, so their
// times surface through its NextEventTime instead.
// Coordinator-only, barrier-only. Ownership of each lane slice moves
// to the destination's staging list.
func (set *ShardSet) drainLanes() (Time, bool) {
	for _, src := range set.all {
		for dst := range src.out {
			lane := src.out[dst]
			if len(lane) == 0 {
				continue
			}
			set.all[dst].staged = append(set.all[dst].staged, lane)
			src.out[dst] = nil
		}
	}
	var minAt Time
	ok := false
	for _, sh := range set.shards {
		for _, lane := range sh.staged {
			for _, m := range lane {
				if !ok || m.At < minAt {
					minAt, ok = m.At, true
				}
			}
		}
	}
	return minAt, ok
}

// nextEventTime scans every shard's queue for the earliest live
// event. Coordinator-only, barrier-only.
func (set *ShardSet) nextEventTime() (Time, bool) {
	var min Time
	ok := false
	for _, sh := range set.shards {
		if at, live := sh.sched.NextEventTime(); live && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}

// advanceTo moves the barrier position and every shard clock forward
// to t (never backward).
func (set *ShardSet) advanceTo(t Time) {
	if t < set.now {
		return
	}
	set.now = t
	for _, sh := range set.shards {
		if sh.sched.now < t {
			sh.sched.now = t
		}
	}
}

// Run drives the epoch loop until every queue and lane is empty or
// the horizon is reached, then leaves all clocks at until. Control
// events and barrier tasks fire at their grid times up to and
// including until. Returns ErrStopped if Stop was called.
//
// Each iteration quiesces at a barrier and picks the earliest of
// three grid-aligned candidates: running due control events, firing
// due barrier tasks, or dispatching the next worker epoch. All three
// decisions derive from global minima (earliest worker event, staged
// message, control event, task time), so the barrier sequence — and
// with it every insertion batch and control execution point — is a
// pure function of the logical event set, independent of the shard
// count.
func (set *ShardSet) Run(until Time) error {
	if !set.started {
		set.started = true
		for _, sh := range set.shards {
			go sh.worker()
		}
		defer func() {
			for _, sh := range set.shards {
				close(sh.cmd)
			}
		}()
	}
	set.running = true
	defer func() { set.running = false }()
	L := set.lookahead
	for {
		if set.stopped.Load() {
			return ErrStopped
		}
		stagedAt, stagedOK := set.drainLanes()
		set.ctl.insertStaged()
		evAt, evOK := set.nextEventTime()
		if stagedOK && (!evOK || stagedAt < evAt) {
			evAt, evOK = stagedAt, true
		}
		if evOK && evAt > until {
			evOK = false
		}
		ctlAt, ctlOK := set.ctl.sched.NextEventTime()
		if ctlOK && ctlAt > until {
			ctlOK = false
		}
		taskAt, taskOK := set.nextTaskTime(until)
		if !evOK && !ctlOK && !taskOK {
			break
		}
		// Next worker epoch start: the grid slot of the earliest event.
		epochStart := set.now
		if evOK {
			epochStart = evAt / L * L
			if epochStart < set.now {
				epochStart = set.now
			}
		}
		// Control barrier: the first grid point at or after the
		// earliest control event, clamped into [now, until].
		ctlBar := set.now
		if ctlOK {
			ctlBar = (ctlAt + L - 1) / L * L
			if ctlBar < set.now {
				ctlBar = set.now
			}
			if ctlBar > until {
				ctlBar = until
			}
		}
		// Priority at a shared barrier position: control events first
		// (their timestamps are the oldest), then tasks, then the
		// epoch. Each branch re-enters the loop so later decisions see
		// the world the earlier ones produced.
		if ctlOK && (!evOK || ctlBar <= epochStart) && (!taskOK || ctlBar <= taskAt) {
			set.advanceTo(ctlBar)
			if err := set.ctl.sched.run(ctlBar); err != nil {
				return err
			}
			continue
		}
		if taskOK && (!evOK || taskAt <= epochStart) {
			set.advanceTo(taskAt)
			set.runTasksAt(taskAt)
			continue
		}
		set.advanceTo(epochStart)
		end := epochStart + L
		runUntil := end - 1
		if runUntil > until {
			runUntil = until
		}
		for _, sh := range set.shards {
			sh.openEnd = end
		}
		for _, sh := range set.shards {
			sh.cmd <- shardCmd{until: runUntil}
		}
		var err error
		for _, sh := range set.shards {
			if e := <-sh.done; e != nil {
				err = e
			}
		}
		if err != nil {
			return err
		}
		set.advanceTo(end)
	}
	set.advanceTo(until)
	if set.ctl.sched.now < until {
		set.ctl.sched.now = until
	}
	return nil
}

// nextTaskTime reports the earliest pending task time <= until.
func (set *ShardSet) nextTaskTime(until Time) (Time, bool) {
	var min Time
	ok := false
	for _, t := range set.tasks {
		if t.next <= until && (!ok || t.next < min) {
			min, ok = t.next, true
		}
	}
	return min, ok
}

// runTasksAt fires every task due at t, in registration order.
func (set *ShardSet) runTasksAt(t Time) {
	for _, task := range set.tasks {
		if task.next == t {
			task.Fn(t)
			task.next += task.Every
		}
	}
}
