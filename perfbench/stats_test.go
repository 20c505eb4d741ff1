package main

import (
	"math"
	"testing"

	"ddosim/ddosim"
	"ddosim/internal/obs"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.n != len(c.xs) {
			t.Errorf("%v: n = %d", c.xs, s.n)
		}
		for _, p := range []struct {
			name      string
			got, want float64
		}{{"q1", s.q1, c.q1}, {"median", s.median, c.median}, {"q3", s.q3, c.q3}} {
			if math.Abs(p.got-p.want) > 1e-12 {
				t.Errorf("%v: %s = %v, want %v", c.xs, p.name, p.got, p.want)
			}
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty: %+v", s)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSplitPhases(t *testing.T) {
	var samples []obs.SecSample
	for sec := int64(0); sec < 10; sec++ {
		samples = append(samples, obs.SecSample{Sec: sec, WallNS: (sec + 1) * 1e9})
	}
	// Attack ordered at 3.5 s for 4 s: seconds 0-2 recruit, 3-6 attack,
	// 7-9 drain.
	rec, att, drain := splitPhases(samples, 3500*ddosim.Millisecond, 4)
	if rec != 1+2+3 || att != 4+5+6+7 || drain != 8+9+10 {
		t.Fatalf("split = %v/%v/%v, want 6/22/27", rec, att, drain)
	}
	rec, att, drain = splitPhases(samples, -1, 4)
	if rec != 55 || att != 0 || drain != 0 {
		t.Fatalf("no attack: split = %v/%v/%v, want 55/0/0", rec, att, drain)
	}
}
