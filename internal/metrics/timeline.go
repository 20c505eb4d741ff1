// Package metrics holds the run's event timeline: the timestamped
// infection, C&C and attack events the experiment harness and the §V
// use cases read. Per-second traffic lives on the obs time-series
// grid, which D_received (Eq. 2) is computed from.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"ddosim/internal/sim"
)

// Timeline records timestamped labeled events (infections, C&C joins,
// attack start/stop). The epidemic use case reads infection timelines
// from here.
type Timeline struct {
	events []TimelineEvent
}

// TimelineEvent is one entry in a Timeline.
type TimelineEvent struct {
	At    sim.Time
	Kind  string
	Actor string
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Record appends an event. Events arrive in simulation order because
// the kernel is single-threaded.
func (t *Timeline) Record(at sim.Time, kind, actor string) {
	t.events = append(t.events, TimelineEvent{At: at, Kind: kind, Actor: actor})
}

// Events returns a copy of all events.
func (t *Timeline) Events() []TimelineEvent {
	out := make([]TimelineEvent, len(t.events))
	copy(out, t.events)
	return out
}

// Count reports how many events of the given kind were recorded.
func (t *Timeline) Count(kind string) int {
	n := 0
	for _, e := range t.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// FirstOf reports the earliest event of the given kind.
func (t *Timeline) FirstOf(kind string) (TimelineEvent, bool) {
	for _, e := range t.events {
		if e.Kind == kind {
			return e, true
		}
	}
	return TimelineEvent{}, false
}

// LastOf reports the latest event of the given kind.
func (t *Timeline) LastOf(kind string) (TimelineEvent, bool) {
	for i := len(t.events) - 1; i >= 0; i-- {
		if t.events[i].Kind == kind {
			return t.events[i], true
		}
	}
	return TimelineEvent{}, false
}

// CumulativeCurve returns, for each event of kind, the pair (seconds
// since start, cumulative count). This is the infected-device curve the
// §V-B use case fits an SIR model against.
func (t *Timeline) CumulativeCurve(kind string) (times []float64, counts []int) {
	for _, e := range t.events {
		if e.Kind == kind {
			times = append(times, e.At.Seconds())
			counts = append(counts, len(counts)+1)
		}
	}
	return times, counts
}

// ActorsOf lists the distinct actors of events of the given kind, in
// sorted order.
func (t *Timeline) ActorsOf(kind string) []string {
	set := make(map[string]bool)
	for _, e := range t.events {
		if e.Kind == kind {
			set[e.Actor] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders the timeline compactly for debugging.
func (t *Timeline) String() string {
	var b strings.Builder
	for _, e := range t.events {
		fmt.Fprintf(&b, "%s %s %s\n", e.At, e.Kind, e.Actor)
	}
	return b.String()
}
