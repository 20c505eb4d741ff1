package main

import (
	"sort"

	"ddosim/ddosim"
	"ddosim/internal/obs"
)

// summary is a sample set's median, quartiles and size.
type summary struct {
	median, q1, q3 float64
	n              int
}

// summarize computes the median and the first and third quartiles by
// the "exclusive" method of Python's statistics.quantiles(n=4), so the
// figures match what a reader recomputes from the raw samples. One
// sample is its own median and quartiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{median: s[0], q1: s[0], q3: s[0], n: 1}
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{median: med, q1: q(1), q3: q(3), n: n}
}

// splitPhases divides a run's per-simulated-second wall samples at
// the attack order: seconds before it are recruitment, the commanded
// attack window is the attack, and the rest is the drain after it.
// With no attack order (attackAt < 0) every second is recruitment.
func splitPhases(samples []obs.SecSample, attackAt ddosim.Time, attackSecs int) (recruit, attack, drain float64) {
	from := int64(-1)
	if attackAt >= 0 {
		from = int64(attackAt / ddosim.Second)
	}
	for _, s := range samples {
		sec := float64(s.WallNS) / 1e9
		switch {
		case from < 0 || s.Sec < from:
			recruit += sec
		case s.Sec < from+int64(attackSecs):
			attack += sec
		default:
			drain += sec
		}
	}
	return recruit, attack, drain
}
