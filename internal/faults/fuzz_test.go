package faults

import (
	"math"
	"testing"

	"ddosim/internal/sim"
)

// FuzzParseSpec feeds arbitrary -faults strings to the spec parser: it
// must never panic, and whatever it accepts must be a Config that
// passes Validate, carries only finite rates and factors, and builds an
// injector.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"",
		"intensity=0.6",
		"flap:period=60s,down=5s,mode=periodic",
		"loss:rate=0.9,burst=5s,gap=30s",
		"degrade:period=120s,down=30s,factor=0.25,qfactor=0.5",
		"crash:period=90s,restart=10s",
		"cnc:period=150s,down=20s,crash=300s,takedown=30s",
		"sink:period=200s,down=15s",
		"intensity=1;flap:period=10s,down=1s",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config Validate rejects: %v", spec, err)
		}
		for _, v := range []float64{cfg.BurstLoss, cfg.DegradeFactor, cfg.DegradeQueueFactor} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseSpec(%q) accepted a non-finite value: %+v", spec, cfg)
			}
		}
		if _, err := New(sim.NewScheduler(1), cfg, 1, nil); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config New rejects: %v", spec, err)
		}
	})
}
