package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The sharded kernel's contract is that shard count is unobservable:
// the same seed must produce byte-identical behaviour at 1, 2, 4, and
// 8 shards. These tests drive a synthetic
// multi-LP workload — token rings crossing LP boundaries, local
// timers drawing per-LP randomness, and barrier tasks sampling global
// state — and compare merged logs across the full matrix.

// testEntry is one synthetic observation, stamped with the
// partition-independent merge key (at, lp, emit-seq).
type testEntry struct {
	at  Time
	lp  uint32
	seq uint64
	msg string
}

type testWorld struct {
	set     *ShardSet
	lps     []*LP
	logs    [][]testEntry // per-LP logs, mutated only by the owning LP
	counts  []int         // per-LP token counters
	taskLog []string
}

func (w *testWorld) emit(lp *LP, at Time, msg string) {
	w.logs[lp.idx] = append(w.logs[lp.idx], testEntry{at: at, lp: lp.idx, seq: lp.NextEmit(), msg: msg})
}

// token is the hot-path message handler: LP state update plus a
// forwarded token with an RNG-jittered delay.
type token struct {
	w    *testWorld
	ring []*LP
}

func (tk *token) HandleMsg(at Time, a, b any) {
	self := a.(*LP)
	w := tk.w
	w.counts[self.idx]++
	w.emit(self, at, fmt.Sprintf("token n=%d r=%d", w.counts[self.idx], self.RNG().Int63n(1000)))
	if w.counts[self.idx] == 2 {
		// Report to the control plane carrying the *current* timestamp:
		// ctl-destined sends are exempt from the lookahead floor.
		ctl := w.set.CtlLP()
		src, n := self.idx, w.counts[self.idx]
		self.SendFunc(ctl, at, func(t Time) {
			w.emit(ctl, t, fmt.Sprintf("report lp=%d n=%d", src, n))
		})
	}
	if w.counts[self.idx] >= 40 {
		return
	}
	next := tk.ring[(int(self.idx)+1)%len(tk.ring)]
	jitter := Time(self.RNG().Int63n(int64(3 * Millisecond)))
	self.Send(next, at+w.set.Lookahead()+jitter, tk, next, nil)
}

func runShardWorld(t *testing.T, seed int64, shards int) (string, uint64) {
	t.Helper()
	const L = 2 * Millisecond
	const nLP = 7
	set := NewShardSet(seed, shards, L)
	w := &testWorld{set: set}
	for i := 0; i < nLP; i++ {
		w.lps = append(w.lps, set.NewLP(i%shards))
	}
	// LP index 0 is the control LP, so per-LP arrays carry one extra
	// slot and topology LPs occupy 1..nLP.
	w.logs = make([][]testEntry, nLP+1)
	w.counts = make([]int, nLP+1)
	tk := &token{w: w, ring: w.lps}

	// A control-plane chain: an off-grid self-rescheduling timer on the
	// ctl scheduler, drawing from the ctl LP's stream and sampling
	// global state at barriers.
	ctlLP := set.CtlLP()
	set.WithLP(ctlLP, func() {
		var cron func()
		m := 0
		cron = func() {
			m++
			at := set.CtlSched().Now()
			w.emit(ctlLP, at, fmt.Sprintf("ctl n=%d r=%d pend=%d", m, set.CtlSched().RNG().Int63n(1000), set.Pending()))
			if m < 40 {
				set.CtlSched().Schedule(3100*Microsecond, cron)
			}
		}
		set.CtlSched().Schedule(1500*Microsecond, cron)
	})

	for _, lp := range w.lps {
		lp := lp
		set.WithLP(lp, func() {
			// A local timer chain: self-rescheduling, RNG-driven, never
			// crossing the LP boundary.
			var tick func()
			n := 0
			tick = func() {
				n++
				at := lp.shard.sched.Now()
				w.emit(lp, at, fmt.Sprintf("tick n=%d r=%d", n, lp.shard.sched.RNG().Int63n(1000)))
				if n < 25 {
					lp.shard.sched.Schedule(1700*Microsecond, tick)
				}
			}
			lp.shard.sched.Schedule(Time(lp.idx+1)*300*Microsecond, tick)
			// Seed the ring: every third LP starts a token at setup.
			if lp.idx%3 == 0 {
				next := w.lps[(int(lp.idx)+1)%nLP]
				lp.Send(next, 5*Millisecond+Time(lp.idx)*Millisecond, tk, next, nil)
			}
		})
	}
	set.AddTask(10*Millisecond, func(at Time) {
		total := 0
		for _, c := range w.counts {
			total += c
		}
		w.taskLog = append(w.taskLog, fmt.Sprintf("t=%v total=%d pending=%d", at, total, set.Pending()))
	})

	if err := set.Run(200 * Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Merge the per-LP logs by the deterministic key, exactly as the
	// observability layer merges per-shard trace buffers.
	var all []testEntry
	for _, log := range w.logs {
		all = append(all, log...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.lp != b.lp {
			return a.lp < b.lp
		}
		return a.seq < b.seq
	})
	var sb strings.Builder
	for _, e := range all {
		fmt.Fprintf(&sb, "%d lp%d #%d %s\n", int64(e.at), e.lp, e.seq, e.msg)
	}
	sb.WriteString("-- tasks --\n")
	for _, l := range w.taskLog {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String(), set.Processed()
}

func TestShardCountUnobservable(t *testing.T) {
	refLog, refProcessed := runShardWorld(t, 42, 1)
	if !strings.Contains(refLog, "token") || !strings.Contains(refLog, "tick") ||
		!strings.Contains(refLog, "ctl ") || !strings.Contains(refLog, "report ") {
		t.Fatalf("reference log is missing workload entries:\n%s", refLog)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		log, processed := runShardWorld(t, 42, shards)
		if log != refLog {
			t.Fatalf("shards=%d diverged from shards=1:\nref:\n%s\ngot:\n%s", shards, refLog, log)
		}
		if processed != refProcessed {
			t.Fatalf("shards=%d processed %d events, want %d", shards, processed, refProcessed)
		}
	}
}

func TestShardDifferentSeedsDiverge(t *testing.T) {
	a, _ := runShardWorld(t, 1, 4)
	b, _ := runShardWorld(t, 2, 4)
	if a == b {
		t.Fatal("different seeds produced identical logs")
	}
}

// TestShardRace exists to give the race detector a parallel workload;
// correctness is covered above.
func TestShardRace(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runShardWorld(t, seed, 4)
	}
}

func TestShardLookaheadViolationPanics(t *testing.T) {
	set := NewShardSet(1, 2, 2*Millisecond)
	a, b := set.NewLP(0), set.NewLP(1)
	set.WithLP(a, func() {
		a.shard.sched.Schedule(Millisecond, func() {
			defer func() {
				if recover() == nil {
					t.Error("in-epoch delivery time did not panic")
				}
				set.Stop()
			}()
			a.Send(b, a.shard.sched.Now(), funcMsg{func(Time) {}}, nil, nil)
		})
	})
	_ = set.Run(10 * Millisecond)
}

func TestBarrierTaskGridValidation(t *testing.T) {
	set := NewShardSet(1, 1, 2*Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("off-grid task period did not panic")
		}
	}()
	set.AddTask(3*Millisecond, func(Time) {})
}
