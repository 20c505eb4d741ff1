package experiments

import (
	"fmt"
	"strings"

	"ddosim/internal/core"
	"ddosim/internal/sim"
)

// RecruitRow is one point of the recruitment-vector comparison — the
// experiment behind the paper's R1 motivation: as credential hygiene
// improves (legislation), the dictionary vector collapses while the
// memory-error vector is untouched.
type RecruitRow struct {
	Vector           core.RecruitVector
	WeakCredFraction float64
	InfectionRate    float64
	MeanRecruitSecs  float64
}

// Recruitment sweeps recruitment vector × weak-credential fraction
// and reports infection rates and mean time-to-recruitment.
func Recruitment(opt Options) ([]RecruitRow, error) {
	devs := 40
	fractions := []float64{1.0, 0.5, 0.25, 0.0}
	if opt.Quick {
		devs = 15
		fractions = []float64{1.0, 0.0}
	}

	var rows []RecruitRow

	run := func(vector core.RecruitVector, frac float64) (RecruitRow, error) {
		var rateSum, timeSum float64
		timed := 0
		for _, seed := range opt.seeds() {
			cfg := core.DefaultConfig(devs)
			cfg.Seed = seed
			cfg.Vector = vector
			cfg.WeakCredFraction = frac
			cfg.AttackDuration = 30
			if vector == core.VectorCredentials {
				cfg.SimDuration = 900 * sim.Second
				cfg.RecruitTimeout = 600 * sim.Second
				cfg.ScanPeriod = sim.Second
			}
			s, err := core.New(cfg)
			if err != nil {
				return RecruitRow{}, err
			}
			r, err := s.Run()
			if err != nil {
				return RecruitRow{}, err
			}
			if err := opt.dumpObs(fmt.Sprintf("recruit-%s-w%d-s%d", vector, int(frac*100), seed), s); err != nil {
				return RecruitRow{}, err
			}
			rateSum += r.InfectionRate()
			if mean, ok := r.MeanPhaseSecs("recruit"); ok {
				timeSum += mean
				timed++
			}
		}
		row := RecruitRow{
			Vector:           vector,
			WeakCredFraction: frac,
			InfectionRate:    rateSum / float64(len(opt.seeds())),
		}
		if timed > 0 {
			row.MeanRecruitSecs = timeSum / float64(timed)
		}
		return row, nil
	}

	// The memory-error vector ignores credentials entirely: one row.
	row, err := run(core.VectorMemoryError, 1.0)
	if err != nil {
		return nil, fmt.Errorf("recruitment memory-error: %w", err)
	}
	rows = append(rows, row)

	for _, frac := range fractions {
		row, err := run(core.VectorCredentials, frac)
		if err != nil {
			return nil, fmt.Errorf("recruitment credentials frac=%v: %w", frac, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderRecruitment prints the comparison.
func RenderRecruitment(rows []RecruitRow) string {
	var b strings.Builder
	b.WriteString("Recruitment-vector comparison (R1): infection rate vs credential hygiene\n")
	fmt.Fprintf(&b, "%-14s %12s %15s %18s\n", "vector", "weak creds", "infection rate", "mean recruit (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %11.0f%% %14.0f%% %18.1f\n",
			r.Vector, 100*r.WeakCredFraction, 100*r.InfectionRate, r.MeanRecruitSecs)
	}
	return b.String()
}
