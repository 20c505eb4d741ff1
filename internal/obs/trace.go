package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ddosim/internal/sim"
)

// Standard trace categories. Emitters are free to invent more; these
// are the ones the built-in instrumentation uses.
const (
	CatPhase     = "phase"     // run phases: deploy, recruitment, attack
	CatExploit   = "exploit"   // exploit attempts and outcomes
	CatCNC       = "cnc"       // C&C registration and commands
	CatChurn     = "churn"     // device membership flips, epochs
	CatNet       = "net"       // network-level events (queue drops)
	CatKillChain = "killchain" // per-bot kill-chain stages: scan, exploit, load, recruit, attack
)

// KV is one ordered key/value annotation on a span or event.
type KV struct {
	K, V string
}

// SpanID identifies an open span so it can be ended.
type SpanID int

// Span is a named interval of simulated time (a run phase, a churn
// epoch).
type Span struct {
	ID    SpanID
	Cat   string
	Name  string
	Start sim.Time
	End   sim.Time
	Args  []KV

	seq  uint64
	open bool

	// Sharded-mode merge stamp: the emitting logical process and its
	// private emission sequence (see Tracer.SetStamper). Zero in the
	// legacy kernel; never serialized, so legacy artifacts are
	// unchanged.
	lp    uint32
	lpSeq uint64
}

// Event is a point occurrence at one simulated instant: the exported
// view of one record in the event log (see Tracer.Events).
type Event struct {
	At   sim.Time
	Cat  string
	Name string
	Args []KV
}

// EventKind is the interned (category, name, args) tuple of a point
// event. An emitter that records the same tuple many times — a node's
// queue drops — builds its kind once with NewEventKind and passes it to
// Tracer.Emit, so each occurrence costs one 40-byte record and no
// allocation. A kind is immutable: it keeps the args slice it was
// built from, so the caller must not modify that slice afterwards.
type EventKind struct {
	cat, name string
	args      []KV
}

// NewEventKind interns one (cat, name, args) tuple.
func NewEventKind(cat, name string, args ...KV) *EventKind {
	return &EventKind{cat: cat, name: name, args: args} //simlint:allow allocfree(kinds are interned: the drop path builds one per node and drop reason, on that node's first such drop, never one per event)
}

// eventRec is one stored point event: 40 bytes, its strings and args
// shared through the interned kind.
type eventRec struct {
	at   sim.Time
	seq  uint64
	kind *EventKind

	// Sharded-mode merge stamp (see Span).
	lp    uint32
	lpSeq uint64
}

// The event log is a list of fixed chunks of chunkSize records
// (160 KiB each). Appending fills the last chunk and adds a fresh one
// when it is full: records never move, so the log never copies, never
// makes an allocation larger than one chunk, and never clears a grown
// slice.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// DefaultMaxEvents caps recorded point events so a pathological run
// cannot exhaust memory (at the cap the event log holds 40 MiB of
// records); spans are never dropped (their count is bounded by phases
// and epochs). The cap is deterministic: the same run drops the same
// events.
const DefaultMaxEvents = 1 << 20

// Tracer records spans and events for one run. It is not safe for
// concurrent use — the simulation kernel is single-threaded, and so is
// the tracer. All methods are nil-safe so instrumented code can carry
// an optional tracer without guards.
type Tracer struct {
	spans   []Span
	chunks  []*[chunkSize]eventRec // the event log; see chunkSize
	nEvents int
	seq     uint64
	max     int
	dropped uint64

	// stamper supplies the (LP, per-LP emission sequence) merge stamp
	// for sharded runs; nil in the legacy kernel. The stamp is a
	// partition-independent total order within one LP, so per-shard
	// tracers merge deterministically (see MergeTracers). A stamped
	// tracer records past its cap: MergeTracers applies the cap once,
	// to the merged stream, so which events survive does not depend on
	// how the LPs were spread over shards.
	stamper func() (lp uint32, seq uint64)
}

// NewTracer returns an empty tracer with the default event cap.
func NewTracer() *Tracer {
	return &Tracer{max: DefaultMaxEvents}
}

// SetMaxEvents overrides the point-event cap; n <= 0 removes it.
func (t *Tracer) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	t.max = n
}

// SetStamper installs the sharded-mode emission stamper. Every
// subsequent span or event records the stamp the hook returns at
// emission time; MergeTracers orders entries by (time, stamp). From
// then on the event cap is deferred to MergeTracers.
func (t *Tracer) SetStamper(fn func() (lp uint32, seq uint64)) {
	if t == nil {
		return
	}
	t.stamper = fn
}

func (t *Tracer) stamp() (uint32, uint64) {
	if t.stamper == nil {
		return 0, 0
	}
	return t.stamper()
}

// Event records a point event at simulated instant at. It interns a
// fresh kind per call; an emitter on a hot path builds its kinds once
// and calls Emit.
func (t *Tracer) Event(at sim.Time, cat, name string, args ...KV) {
	if t == nil {
		return
	}
	t.Emit(at, NewEventKind(cat, name, args...))
}

// Emit records a point event of an interned kind at simulated instant
// at. It allocates only when the event log starts a new chunk.
func (t *Tracer) Emit(at sim.Time, kind *EventKind) {
	if t == nil {
		return
	}
	if t.max > 0 && t.stamper == nil && t.nEvents >= t.max {
		t.dropped++
		return
	}
	t.seq++
	lp, lpSeq := t.stamp()
	t.push(eventRec{at: at, seq: t.seq, kind: kind, lp: lp, lpSeq: lpSeq})
}

// push appends r to the event log.
func (t *Tracer) push(r eventRec) {
	if t.nEvents == len(t.chunks)*chunkSize {
		t.chunks = append(t.chunks, new([chunkSize]eventRec)) //simlint:allow allocfree(one 160 KiB chunk per 4096 traced events, only when tracing is armed; untraced runs return at the nil-receiver guard)
	}
	t.chunks[t.nEvents>>chunkBits][t.nEvents&chunkMask] = r
	t.nEvents++
}

// rec returns the i-th record of the event log.
func (t *Tracer) rec(i int) *eventRec {
	return &t.chunks[i>>chunkBits][i&chunkMask]
}

// BeginSpan opens a span at simulated instant at and returns its id.
func (t *Tracer) BeginSpan(at sim.Time, cat, name string, args ...KV) SpanID {
	if t == nil {
		return -1
	}
	t.seq++
	id := SpanID(len(t.spans))
	lp, lpSeq := t.stamp()
	t.spans = append(t.spans, Span{
		ID: id, Cat: cat, Name: name, Start: at, End: at, Args: args,
		seq: t.seq, open: true, lp: lp, lpSeq: lpSeq,
	})
	return id
}

// EndSpan closes a span at simulated instant at. Ending an unknown or
// already-closed span is a no-op.
func (t *Tracer) EndSpan(id SpanID, at sim.Time) {
	if t == nil || id < 0 || int(id) >= len(t.spans) {
		return
	}
	sp := &t.spans[id]
	if !sp.open {
		return
	}
	sp.open = false
	if at > sp.Start {
		sp.End = at
	}
}

// RecordSpan appends an already-closed span covering [start, end].
// Use it when the interval's endpoints are only known in retrospect —
// e.g. a kill-chain stage whose start was noted before it was certain
// a span would be produced. The span is sequenced at record time, so
// it appears in exports at its completion point; end times before
// start are clamped to start.
func (t *Tracer) RecordSpan(start, end sim.Time, cat, name string, args ...KV) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.seq++
	lp, lpSeq := t.stamp()
	t.spans = append(t.spans, Span{
		ID: SpanID(len(t.spans)), Cat: cat, Name: name,
		Start: start, End: end, Args: args, seq: t.seq, lp: lp, lpSeq: lpSeq,
	})
}

// CloseOpenSpans ends every still-open span at the given instant —
// called once when a run finishes so exports never carry zero-length
// phantom phases.
func (t *Tracer) CloseOpenSpans(at sim.Time) {
	if t == nil {
		return
	}
	for i := range t.spans {
		if t.spans[i].open {
			t.EndSpan(SpanID(i), at)
		}
	}
}

// Spans returns a copy of all recorded spans in begin order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Events returns a copy of all recorded point events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, t.nEvents)
	for i := range out {
		r := t.rec(i)
		out[i] = Event{At: r.at, Cat: r.kind.cat, Name: r.kind.name, Args: r.kind.args}
	}
	return out
}

// Dropped reports how many point events hit the cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// CountEvents reports how many point events of the given category and
// name were recorded; empty strings match anything.
func (t *Tracer) CountEvents(cat, name string) int {
	if t == nil {
		return 0
	}
	n := 0
	for i := 0; i < t.nEvents; i++ {
		k := t.rec(i).kind
		if (cat == "" || k.cat == cat) && (name == "" || k.name == name) {
			n++
		}
	}
	return n
}

// MergeTracers combines per-shard tracers into one, ordered by the
// partition-independent key (time, emitting LP, per-LP emission
// sequence) — the same merge the sharded kernel applies to mailbox
// messages. Spans order by their start time. The inputs must have been
// stamped (SetStamper); within one LP the emission sequence is a total
// order, so the merged stream is a pure function of the run,
// independent of the shard count. The smallest event cap among the
// inputs (SetMaxEvents; 0 is none) applies once, to the merged stream:
// the first cap events in merged order are kept and the rest count as
// dropped, on top of the inputs' own drop counts. The merged tracer
// carries fresh interleave sequence numbers and span IDs; input
// tracers are left untouched.
func MergeTracers(parts ...*Tracer) *Tracer {
	m := &Tracer{}
	total := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.max > 0 && (m.max == 0 || p.max < m.max) {
			m.max = p.max
		}
		m.spans = append(m.spans, p.spans...)
		m.dropped += p.dropped
		total += p.nEvents
	}
	recs := make([]eventRec, 0, total)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i := 0; i < p.nEvents; i++ {
			recs = append(recs, *p.rec(i))
		}
	}
	sort.SliceStable(m.spans, func(i, j int) bool {
		a, b := &m.spans[i], &m.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.lp != b.lp {
			return a.lp < b.lp
		}
		return a.lpSeq < b.lpSeq
	})
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.lp != b.lp {
			return a.lp < b.lp
		}
		return a.lpSeq < b.lpSeq
	})
	if m.max > 0 && len(recs) > m.max {
		m.dropped += uint64(len(recs) - m.max)
		recs = recs[:m.max]
	}
	// Re-sequence the interleave: a span at (t, lp, n) precedes an
	// event at (t, lp, m) iff n < m; ties across LPs break low-LP
	// first, events of the same position after spans (a span's begin
	// stamp was drawn before any same-position event's).
	si, ei := 0, 0
	var seq uint64
	spanFirst := func() bool {
		if si >= len(m.spans) {
			return false
		}
		if ei >= len(recs) {
			return true
		}
		sp, ev := &m.spans[si], &recs[ei]
		if sp.Start != ev.at {
			return sp.Start < ev.at
		}
		if sp.lp != ev.lp {
			return sp.lp < ev.lp
		}
		return sp.lpSeq < ev.lpSeq
	}
	for si < len(m.spans) || ei < len(recs) {
		seq++
		if spanFirst() {
			m.spans[si].seq = seq
			m.spans[si].ID = SpanID(si)
			si++
		} else {
			recs[ei].seq = seq
			m.push(recs[ei])
			ei++
		}
	}
	m.seq = seq
	return m
}

// record is the unified JSONL row: spans carry end_us, events do not.
type record struct {
	Type  string            `json:"type"` // "span" | "event"
	Cat   string            `json:"cat"`
	Name  string            `json:"name"`
	AtUS  int64             `json:"ts_us"`
	EndUS *int64            `json:"end_us,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

func argMap(args []KV) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args))
	for _, kv := range args {
		m[kv.K] = kv.V
	}
	return m
}

func micros(t sim.Time) int64 { return int64(t / sim.Microsecond) }

// merged returns spans and events interleaved in record (seq) order,
// which for a single-threaded simulation is chronological by begin
// time. The order — and therefore every exported byte — is a pure
// function of the run.
func (t *Tracer) merged() []record {
	out := make([]record, 0, len(t.spans)+t.nEvents)
	si, ei := 0, 0
	for si < len(t.spans) || ei < t.nEvents {
		if ei >= t.nEvents || (si < len(t.spans) && t.spans[si].seq < t.rec(ei).seq) {
			sp := t.spans[si]
			end := micros(sp.End)
			out = append(out, record{
				Type: "span", Cat: sp.Cat, Name: sp.Name,
				AtUS: micros(sp.Start), EndUS: &end, Args: argMap(sp.Args),
			})
			si++
			continue
		}
		ev := t.rec(ei)
		out = append(out, record{
			Type: "event", Cat: ev.kind.cat, Name: ev.kind.name,
			AtUS: micros(ev.at), Args: argMap(ev.kind.args),
		})
		ei++
	}
	return out
}

// WriteJSONL writes one JSON object per line, spans and events
// interleaved in record order. encoding/json sorts map keys, so the
// output is byte-deterministic.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, r := range t.merged() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format
// (catapult "JSON Array Format"): spans become "X" complete events,
// point events become "i" instants. Timestamps are microseconds of
// simulated time.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    int64             `json:"ts"`
	Dur   *int64            `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the run as Chrome trace_event JSON, loadable
// in chrome://tracing and Perfetto. Each category gets its own track
// (tid), assigned in sorted category order for determinism.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	cats := make(map[string]bool)
	for _, sp := range t.spans {
		cats[sp.Cat] = true
	}
	for i := 0; i < t.nEvents; i++ {
		cats[t.rec(i).kind.cat] = true
	}
	sorted := make([]string, 0, len(cats))
	for c := range cats {
		sorted = append(sorted, c)
	}
	sort.Strings(sorted)
	tid := make(map[string]int, len(sorted))
	for i, c := range sorted {
		tid[c] = i + 1
	}

	out := make([]chromeEvent, 0, len(t.spans)+t.nEvents)
	for _, r := range t.merged() {
		ce := chromeEvent{
			Name: r.Name, Cat: r.Cat, TS: r.AtUS,
			PID: 1, TID: tid[r.Cat], Args: r.Args,
		}
		if r.Type == "span" {
			dur := *r.EndUS - r.AtUS
			ce.Phase = "X"
			ce.Dur = &dur
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		out = append(out, ce)
	}

	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ce := range out {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
