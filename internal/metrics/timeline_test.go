package metrics

import (
	"testing"

	"ddosim/internal/sim"
)

func TestTimeline(t *testing.T) {
	tl := NewTimeline()
	tl.Record(1*sim.Second, "infected", "dev-1")
	tl.Record(2*sim.Second, "infected", "dev-2")
	tl.Record(3*sim.Second, "attack-start", "cnc")
	if tl.Count("infected") != 2 {
		t.Fatalf("Count = %d", tl.Count("infected"))
	}
	first, ok := tl.FirstOf("infected")
	if !ok || first.Actor != "dev-1" {
		t.Fatalf("FirstOf = %+v ok=%v", first, ok)
	}
	last, ok := tl.LastOf("infected")
	if !ok || last.Actor != "dev-2" {
		t.Fatalf("LastOf = %+v", last)
	}
	if _, ok := tl.FirstOf("missing"); ok {
		t.Fatal("FirstOf missing kind reported ok")
	}
	times, counts := tl.CumulativeCurve("infected")
	if len(times) != 2 || counts[1] != 2 || times[0] != 1 {
		t.Fatalf("curve = %v %v", times, counts)
	}
	actors := tl.ActorsOf("infected")
	if len(actors) != 2 || actors[0] != "dev-1" {
		t.Fatalf("actors = %v", actors)
	}
	if tl.String() == "" {
		t.Fatal("String empty")
	}
	if len(tl.Events()) != 3 {
		t.Fatalf("Events = %d", len(tl.Events()))
	}
}
