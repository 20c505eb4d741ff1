package main

import "ddosim/internal/sim"

// dispatchNS times the bare event kernel through sim's public API: a
// fresh scheduler is filled to depth pending no-payload events, and
// every event that fires schedules one replacement until events have
// fired, so the queue stays at depth throughout. It returns wall
// nanoseconds per dispatched event (the drain of the final depth
// events included).
func dispatchNS(depth, events int, seed int64) float64 {
	depth = max(depth, 1)
	s := sim.NewScheduler(seed)
	rng := s.RNG()
	spread := int64(depth) * int64(sim.Microsecond)
	left := events
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			s.Schedule(sim.Time(rng.Int63n(spread)), fire)
		}
	}
	for i := 0; i < depth; i++ {
		s.Schedule(sim.Time(rng.Int63n(spread)), fire)
	}
	start := wallNow()
	_ = s.RunAll() // nothing calls Stop, so RunAll cannot fail
	return float64(since(start).Nanoseconds()) / float64(s.Processed())
}
