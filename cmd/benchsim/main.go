// Command benchsim measures simulator throughput — how fast the host
// interpreter retires simulated instructions — and persists the result
// as BENCH_sim.json so interpreter-performance regressions show up in
// review as a diff, not as a vague feeling that CI got slower.
//
// Unlike bench_test.go, which reports the *simulated machine's*
// behaviour (ticks, speedups, energy), this tool times the simulator
// itself: wall-clock per workload run, in scalar mode and under the
// original and extended DSA systems. Machine construction and workload
// setup are excluded — they are one-time costs dominated by zeroing
// the 16 MiB memory image, not interpreter work.
//
// Under a DSA mode the scalar core retires FEWER instructions for the
// same workload (vectorized windows execute on the NEON model), so
// raw retired-steps-per-second would flatter slow DSA runs. Each
// result therefore also carries equivalent_scalar_steps — the steps
// the scalar interpreter retires for the identical workload — and
// eq_steps_per_sec normalizes wall-clock against THAT, making the
// number comparable across modes: it answers "how fast does this mode
// get through the same work", not "how fast does it spin".
//
// Each result also carries energy_nj, the simulated machine's modeled
// energy for the run, so the per-mode energy profile travels with the
// throughput numbers.
//
// Usage: go run ./cmd/benchsim -out BENCH_sim.json [-reps 3]
// Each (workload, mode) pair runs reps times; the fastest wall time is
// kept (minimum-of-N rejects scheduler noise, the standard practice
// for throughput benchmarks).
//
// With -baseline <file>, benchsim additionally compares the measured
// dsa-extended/scalar wall-clock ratio against the baseline file's and
// exits non-zero when it regressed by more than -slack (default 10%).
// The ratio — not absolute wall time — is compared, so the gate is
// meaningful on CI hosts of any speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// Result is one (workload, mode) throughput measurement.
type Result struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	Steps    uint64 `json:"steps"`   // simulated instructions retired by the scalar core
	Ticks    int64  `json:"ticks"`   // simulated time consumed
	WallNS   int64  `json:"wall_ns"` // host wall-clock, best of reps
	// EqScalarSteps is the scalar-mode retirement count for the same
	// workload — the common work denominator across modes.
	EqScalarSteps uint64  `json:"equivalent_scalar_steps"`
	EqStepsPerSec float64 `json:"eq_steps_per_sec"` // EqScalarSteps / wall
	// EnergyNJ is the simulated machine's modeled energy for the run.
	EnergyNJ float64 `json:"energy_nj"`
}

// Totals aggregates one mode across the whole suite.
type Totals struct {
	Steps         uint64  `json:"steps"`
	WallNS        int64   `json:"wall_ns"`
	EqScalarSteps uint64  `json:"equivalent_scalar_steps"`
	EqStepsPerSec float64 `json:"eq_steps_per_sec"`
	EnergyNJ      float64 `json:"energy_nj"`
}

// File is the BENCH_sim.json layout.
type File struct {
	Schema    string            `json:"schema"`
	GoVersion string            `json:"go_version"`
	Reps      int               `json:"reps"`
	Workloads []string          `json:"workloads"`
	Results   []Result          `json:"results"`
	Totals    map[string]Totals `json:"totals"`
}

var modes = []string{"scalar", "dsa-original", "dsa-extended"}

// runScalar times one scalar-mode run; returns steps, ticks, wall,
// modeled energy.
func runScalar(w *workloads.Workload) (uint64, int64, time.Duration, float64, error) {
	m := cpu.MustNew(w.Scalar(), cpu.DefaultConfig())
	w.Setup(m)
	start := time.Now()
	err := m.Run(nil)
	wall := time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := w.Check(m); err != nil {
		return 0, 0, 0, 0, err
	}
	nj := energy.Compute(energy.DefaultParams(), m.Counts,
		m.Caches.L1Stats(), m.Caches.L2Stats(), energy.DSAEvents{}).Total()
	return m.Steps, m.Ticks, wall, nj, nil
}

// runDSA times one run under a DSA system. The step count is the
// scalar core's retirement count; takeover-executed work shows up as
// fewer steps over the same workload, which is exactly the simulator
// cost profile the DSA modes have.
func runDSA(w *workloads.Workload, cfg dsa.Config) (uint64, int64, time.Duration, float64, error) {
	s, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), cfg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	w.Setup(s.M)
	start := time.Now()
	err = s.Run()
	wall := time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := w.Check(s.M); err != nil {
		return 0, 0, 0, 0, err
	}
	nj := energy.Compute(energy.DefaultParams(), s.M.Counts,
		s.M.Caches.L1Stats(), s.M.Caches.L2Stats(), s.Stats().EnergyEvents()).Total()
	return s.M.Steps, s.M.Ticks, wall, nj, nil
}

func measure(w *workloads.Workload, mode string, reps int) (Result, error) {
	r := Result{Workload: w.Name, Mode: mode}
	for i := 0; i < reps; i++ {
		var (
			steps uint64
			ticks int64
			wall  time.Duration
			nj    float64
			err   error
		)
		switch mode {
		case "scalar":
			steps, ticks, wall, nj, err = runScalar(w)
		case "dsa-original":
			steps, ticks, wall, nj, err = runDSA(w, dsa.OriginalConfig())
		default:
			steps, ticks, wall, nj, err = runDSA(w, dsa.DefaultConfig())
		}
		if err != nil {
			return r, err
		}
		if i == 0 || wall.Nanoseconds() < r.WallNS {
			r.WallNS = wall.Nanoseconds()
		}
		r.Steps, r.Ticks, r.EnergyNJ = steps, ticks, nj
	}
	return r, nil
}

// checkBaseline enforces the wall-clock regression gate: the measured
// dsa-extended/scalar ratio must not exceed the baseline's by more
// than slack (1.10 = +10%).
func checkBaseline(f *File, path string, slack float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base File
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	ratio := func(file *File) (float64, error) {
		dx, ok1 := file.Totals["dsa-extended"]
		sc, ok2 := file.Totals["scalar"]
		if !ok1 || !ok2 || sc.WallNS == 0 {
			return 0, fmt.Errorf("missing scalar/dsa-extended totals")
		}
		return float64(dx.WallNS) / float64(sc.WallNS), nil
	}
	now, err := ratio(f)
	if err != nil {
		return err
	}
	was, err := ratio(&base)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("benchsim: dsa-extended/scalar wall ratio %.3f (baseline %.3f, slack ×%.2f)\n",
		now, was, slack)
	if now > was*slack {
		return fmt.Errorf("dsa-extended wall-clock regressed: ratio %.3f > baseline %.3f × %.2f",
			now, was, slack)
	}
	return nil
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output path")
	reps := flag.Int("reps", 3, "repetitions per measurement (best kept)")
	baseline := flag.String("baseline", "", "baseline BENCH_sim.json to gate the dsa-extended/scalar ratio against")
	slack := flag.Float64("slack", 1.10, "allowed ratio regression factor vs -baseline")
	flag.Parse()

	f := File{
		Schema:    "bench_sim/v3",
		GoVersion: runtime.Version(),
		Reps:      *reps,
		Workloads: experiments.Article1Workloads,
		Totals:    map[string]Totals{},
	}
	// Scalar retirement counts per workload: the eq-steps denominator
	// for every mode (for scalar itself, eq steps == steps).
	scalarSteps := map[string]uint64{}
	for _, mode := range modes {
		var tot Totals
		for _, name := range experiments.Article1Workloads {
			w, err := workloads.ByName(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsim: %v\n", err)
				os.Exit(1)
			}
			r, err := measure(w, mode, *reps)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchsim: %s/%s: %v\n", name, mode, err)
				os.Exit(1)
			}
			if mode == "scalar" {
				scalarSteps[name] = r.Steps
			}
			r.EqScalarSteps = scalarSteps[name]
			r.EqStepsPerSec = float64(r.EqScalarSteps) / (float64(r.WallNS) * 1e-9)
			f.Results = append(f.Results, r)
			tot.Steps += r.Steps
			tot.WallNS += r.WallNS
			tot.EqScalarSteps += r.EqScalarSteps
			tot.EnergyNJ += r.EnergyNJ
			fmt.Printf("%-12s %-14s %9d steps  %8.2f ms  %7.1f eq-Msteps/s  %12.1f nJ\n",
				name, mode, r.Steps, float64(r.WallNS)/1e6, r.EqStepsPerSec/1e6, r.EnergyNJ)
		}
		tot.EqStepsPerSec = float64(tot.EqScalarSteps) / (float64(tot.WallNS) * 1e-9)
		f.Totals[mode] = tot
		fmt.Printf("%-12s %-14s %9d steps  %8.2f ms  %7.1f eq-Msteps/s  %12.1f nJ\n",
			"TOTAL", mode, tot.Steps, float64(tot.WallNS)/1e6, tot.EqStepsPerSec/1e6, tot.EnergyNJ)
	}

	if *baseline != "" {
		if err := checkBaseline(&f, *baseline, *slack); err != nil {
			fmt.Fprintf(os.Stderr, "benchsim: %v\n", err)
			os.Exit(1)
		}
	}

	b, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("benchsim: wrote %s\n", *out)
}
