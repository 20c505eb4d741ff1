package main

import (
	"strings"

	"ddosim/ddosim"
)

// spanGroups are the scheduler source labels the traced run reports,
// in report order. sourceGroup folds every label into one of them.
var spanGroups = []string{
	"net.tx", "net.prop", "net.flows", "container.shell", "core.watcher",
	"obs.windows", "loader", "churn", "p2p", "dht", "sim.msg", "unlabeled", "other",
}

// sourceGroup maps a scheduler source label to its report group:
// exact labels for the hot sources, the subsystem prefix for the
// loader/churn/p2p/dht families, and "other" for the rest (faults,
// command waves).
func sourceGroup(src string) string {
	switch src {
	case "":
		return "unlabeled"
	case "net.tx", "net.prop", "net.flows", "container.shell", "core.watcher", "obs.windows", "sim.msg", "unlabeled":
		return src
	}
	if i := strings.IndexByte(src, '.'); i > 0 {
		switch p := src[:i]; p {
		case "loader", "churn", "p2p", "dht":
			return p
		}
	}
	return "other"
}

// srcSpan accumulates one source group's dispatch spans.
type srcSpan struct {
	events uint64
	selfNS int64
	// cut counts spans whose end was not observed: the last event of
	// an epoch (the next hook entry comes after a barrier wait) or of
	// the run. finish estimates their length.
	cut uint64
}

// spanClock turns scheduler hook entries into dispatch spans. A span
// runs from one hook entry to the next on the same scheduler and is
// charged to the source label of the event entered, so within an
// epoch the spans partition the run loop: event bodies, the queue pop
// and the chained profiler hook all land in some span.
//
// One spanClock serves one scheduler and is only touched from the
// goroutine that runs that scheduler's events.
type spanClock struct {
	now func() int64 // monotonic wall nanoseconds; injectable for tests
	// epoch maps an event time to the batch it executes in. Events of
	// different batches are separated by barrier waits, so a span never
	// crosses a batch boundary. nil means the whole run is one batch.
	epoch func(at ddosim.Time) int64

	groups      map[string]*srcSpan // by report group
	bySrc       map[string]*srcSpan // raw label → its group's entry
	cur         *srcSpan
	curEpoch    int64
	last        int64
	events      uint64
	peakPending int
}

func newSpanClock(now func() int64, epoch func(ddosim.Time) int64) *spanClock {
	return &spanClock{now: now, epoch: epoch,
		groups: make(map[string]*srcSpan), bySrc: make(map[string]*srcSpan)}
}

// enter records the start of an event; it matches the scheduler hook
// signature.
func (c *spanClock) enter(at ddosim.Time, src string, pending int) {
	t := c.now()
	var ep int64
	if c.epoch != nil {
		ep = c.epoch(at)
	}
	if c.cur != nil {
		if ep != c.curEpoch {
			c.cur.cut++
		} else {
			c.cur.selfNS += t - c.last
		}
	}
	g := c.bySrc[src]
	if g == nil {
		name := sourceGroup(src)
		if g = c.groups[name]; g == nil {
			g = &srcSpan{}
			c.groups[name] = g
		}
		c.bySrc[src] = g
	}
	g.events++
	c.events++
	if pending > c.peakPending {
		c.peakPending = pending
	}
	c.cur, c.curEpoch, c.last = g, ep, t
}

// spanReport is a spanClock's totals once its scheduler has stopped.
type spanReport struct {
	events      uint64
	peakPending int
	busyNS      int64
	bySource    map[string]srcSpan // keyed by report group
}

// finish closes the open span as a cut one and fills in every cut
// span with its group's mean observed span length (or, for a group
// with no observed span, the scheduler's overall mean).
func (c *spanClock) finish() spanReport {
	if c.cur != nil {
		c.cur.cut++
		c.cur = nil
	}
	rep := spanReport{events: c.events, peakPending: c.peakPending, bySource: make(map[string]srcSpan)}
	var obsNS int64
	var obsN uint64
	for _, g := range c.groups {
		obsNS += g.selfNS
		obsN += g.events - g.cut
	}
	var mean float64
	if obsN > 0 {
		mean = float64(obsNS) / float64(obsN)
	}
	for name, g := range c.groups {
		s := *g
		m := mean
		if n := g.events - g.cut; n > 0 {
			m = float64(g.selfNS) / float64(n)
		}
		s.selfNS += int64(m * float64(g.cut))
		rep.bySource[name] = s
		rep.busyNS += s.selfNS
	}
	return rep
}
