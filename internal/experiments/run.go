// Package experiments reproduces every table and figure of the
// dissertation's evaluation: it runs each workload under the four
// system setups of Table 4 (ARM Original, NEON AutoVec, NEON
// Hand-coded, NEON DSA original/extended), verifies every run against
// the Go reference, and prints paper-shaped rows.
package experiments

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/vectorize"
	"repro/internal/workloads"
)

// Mode names one system setup.
type Mode string

// The system setups.
const (
	ModeScalar  Mode = "arm-original"
	ModeAutoVec Mode = "neon-autovec"
	ModeHand    Mode = "neon-hand"
	ModeDSAOrig Mode = "neon-dsa-original"
	ModeDSAExt  Mode = "neon-dsa-extended"
)

// Result is one verified run.
type Result struct {
	Workload string
	Mode     Mode
	Ticks    int64
	Counts   cpu.Counts
	L1, L2   mem.Stats
	Energy   energy.Breakdown

	// DSA-only.
	DSA *dsa.Stats
	// AutoVec-only.
	Report *vectorize.Report
}

// Run executes one workload under one mode and verifies the output.
func Run(w *workloads.Workload, mode Mode) (*Result, error) {
	res := &Result{Workload: w.Name, Mode: mode}
	var m *cpu.Machine
	var dsaEvents energy.DSAEvents

	switch mode {
	case ModeScalar:
		m = cpu.MustNew(w.Scalar(), cpu.DefaultConfig())
		w.Setup(m)
		if err := m.Run(nil); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
		}

	case ModeAutoVec:
		prog, rep, err := vectorize.AutoVectorize(w.Scalar(), vectorize.Options{NoAlias: w.NoAlias})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
		}
		res.Report = rep
		m = cpu.MustNew(prog, cpu.DefaultConfig())
		w.Setup(m)
		if err := m.Run(nil); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
		}

	case ModeHand:
		prog := w.Scalar()
		if w.Hand != nil {
			prog = w.Hand()
		}
		m = cpu.MustNew(prog, cpu.DefaultConfig())
		w.Setup(m)
		if err := m.Run(nil); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
		}

	case ModeDSAOrig, ModeDSAExt:
		cfg := dsa.DefaultConfig()
		if mode == ModeDSAOrig {
			cfg = dsa.OriginalConfig()
		}
		s, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), cfg)
		if err != nil {
			return nil, err
		}
		w.Setup(s.M)
		if err := s.Run(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, mode, err)
		}
		m = s.M
		res.DSA = s.Stats()
		dsaEvents = s.Stats().EnergyEvents()

	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}

	if err := w.Check(m); err != nil {
		return nil, fmt.Errorf("%s/%s: verification failed: %w", w.Name, mode, err)
	}
	res.Ticks = m.Ticks
	res.Counts = m.Counts
	res.L1 = m.Caches.L1Stats()
	res.L2 = m.Caches.L2Stats()
	res.Energy = energy.Compute(energy.DefaultParams(), m.Counts, res.L1, res.L2, dsaEvents)
	return res, nil
}

// Suite runs every workload under every requested mode.
type Suite struct {
	Modes   []Mode
	Results map[string]map[Mode]*Result // workload → mode → result
	Order   []string
}

// RunSuite executes the full grid.
func RunSuite(modes []Mode) (*Suite, error) {
	s := &Suite{Modes: modes, Results: make(map[string]map[Mode]*Result)}
	for _, w := range workloads.All() {
		s.Order = append(s.Order, w.Name)
		s.Results[w.Name] = make(map[Mode]*Result)
		for _, mode := range modes {
			r, err := Run(w, mode)
			if err != nil {
				return nil, err
			}
			s.Results[w.Name][mode] = r
		}
	}
	return s, nil
}

// Speedup returns mode's speedup over the scalar baseline for one
// workload.
func (s *Suite) Speedup(name string, mode Mode) float64 {
	base := s.Results[name][ModeScalar]
	r := s.Results[name][mode]
	if base == nil || r == nil || r.Ticks == 0 {
		return 0
	}
	return float64(base.Ticks) / float64(r.Ticks)
}

// EnergySavings returns mode's energy savings (%) over scalar.
func (s *Suite) EnergySavings(name string, mode Mode) float64 {
	base := s.Results[name][ModeScalar]
	r := s.Results[name][mode]
	if base == nil || r == nil {
		return 0
	}
	return (1 - r.Energy.Total()/base.Energy.Total()) * 100
}
