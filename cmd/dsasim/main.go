// Command dsasim runs one benchmark workload under one system setup
// and reports timing, energy and DSA activity — the single-run
// equivalent of cmd/experiments.
//
//	dsasim -workload rgb_gray -mode neon-dsa-extended -v
//
// Robustness modes:
//
//	dsasim -verify                          # differential oracle over every workload
//	dsasim -workload mm_32 -verify          # oracle over one workload (hard mode)
//	dsasim -workload mm_32 -fault corrupt-cache   # fault injection + oracle fallback
//
// Batch mode runs the workload × config matrix concurrently under the
// simulation supervisor (bounded worker pool, per-job deadlines, panic
// isolation, retry and DSA-off degradation):
//
//	dsasim -batch                                    # whole suite, extended DSA
//	dsasim -batch -configs extended,original,scalar  # full matrix
//	dsasim -batch -fault corrupt-cache -retries 2    # chaos batch
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("workload", "", "workload name ("+strings.Join(workloads.Names(), ", ")+")")
	mode := flag.String("mode", string(experiments.ModeDSAExt),
		"system setup: arm-original, neon-autovec, neon-hand, neon-dsa-original, neon-dsa-extended")
	verbose := flag.Bool("v", false, "print instruction counts and DSA internals")
	listing := flag.Bool("listing", false, "disassemble the executed program")
	trace := flag.Uint64("trace", 0, "print the first N retired instructions of a scalar run")
	loops := flag.Bool("loops", false, "print the DSA cache contents (per-loop verdicts and generated SIMD)")
	verify := flag.Bool("verify", false, "shadow every takeover with a scalar replay and fail on the first divergence (no -workload: check the whole suite)")
	fault := flag.String("fault", "none", "inject a fault class into every takeover: none, corrupt-cache, cidp-skew, truncated-range, executor-error (runs with the oracle as fallback)")
	faultEvery := flag.Uint64("fault-every", 1, "arm the injected fault on every Nth takeover")
	batch := flag.Bool("batch", false, "run the workload × config matrix concurrently under the simulation supervisor")
	configs := flag.String("configs", "extended", "batch: comma list of system configs (extended, original, scalar)")
	workers := flag.Int("workers", 0, "batch: worker pool size (0 = GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "batch: per-attempt deadline (0 = none)")
	retries := flag.Int("retries", 1, "batch: extra attempts after a fault-classified failure")
	memBudget := flag.Int64("mem-budget", 0, "batch: cap on in-flight job memory in MiB (0 = default, -1 = unlimited)")
	hard := flag.Bool("hard", false, "batch: surface oracle divergences as job failures (retry/degrade) instead of in-run fallbacks")
	snapshotDir := flag.String("snapshot-dir", "", "batch: directory for durable per-job checkpoints (empty = checkpointing off)")
	snapshotEvery := flag.Uint64("snapshot-every", 0, "batch: steps between checkpoints (0 = runner default)")
	resume := flag.Bool("resume", false, "batch: resume each job from a checkpoint left in -snapshot-dir by a previous run")
	jsonOut := flag.Bool("json", false, "batch: emit one JSON result line per job to stdout (the dsasimd service schema); summary goes to stderr")
	flag.Parse()

	faultKind, err := dsa.ParseFaultKind(*fault)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *batch {
		os.Exit(runBatch(batchFlags{
			workloads: *name,
			configs:   *configs,
			workers:   *workers,
			timeout:   *jobTimeout,
			retries:   *retries,
			memBudget: *memBudget,
			fault:     faultKind,
			faultN:    *faultEvery,
			verifyOn:  *verify,
			hard:      *hard,
			verbose:   *verbose,
			snapDir:   *snapshotDir,
			snapEvery: *snapshotEvery,
			resume:    *resume,
			jsonOut:   *jsonOut,
		}))
	}
	if *verify || faultKind != dsa.FaultNone {
		os.Exit(runGuarded(*name, faultKind, *faultEvery, *verify))
	}

	if *name == "" {
		fmt.Fprintln(os.Stderr, "usage: dsasim -workload <name> [-mode <mode>] [-v]")
		fmt.Fprintln(os.Stderr, "workloads:", strings.Join(workloads.Names(), ", "))
		os.Exit(2)
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *listing {
		fmt.Println(w.Scalar().String())
		return
	}
	if *trace > 0 {
		m := cpu.MustNew(w.Scalar(), cpu.DefaultConfig())
		w.Setup(m)
		t := &cpu.Tracer{W: os.Stdout, Limit: *trace}
		if err := m.Run(t); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "... %d records shown; run halted after %d instructions\n", t.Count(), m.Steps)
		return
	}

	base, err := experiments.Run(w, experiments.ModeScalar)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r, err := experiments.Run(w, experiments.Mode(*mode))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("workload:   %s — %s (DLP: %s)\n", w.Name, w.Description, w.DLP)
	fmt.Printf("mode:       %s\n", r.Mode)
	fmt.Printf("ticks:      %d (scalar %d) → speedup %.2fx\n",
		r.Ticks, base.Ticks, float64(base.Ticks)/float64(r.Ticks))
	fmt.Printf("energy:     %.1f nJ (scalar %.1f) → savings %.1f%%\n",
		r.Energy.Total(), base.Energy.Total(),
		(1-r.Energy.Total()/base.Energy.Total())*100)
	fmt.Printf("verified:   output matches the Go reference\n")

	if *verbose {
		fmt.Printf("\ncounts:     %+v\n", r.Counts)
		fmt.Printf("L1:         %+v   L2: %+v\n", r.L1, r.L2)
		fmt.Printf("energy:     frontend=%.1f scalar=%.1f caches=%.1f neon=%.1f dsa=%.1f nJ\n",
			r.Energy.FrontEnd, r.Energy.Scalar, r.Energy.Caches, r.Energy.NEON, r.Energy.DSA)
		if r.DSA != nil {
			st := r.DSA
			fmt.Printf("\nDSA:        takeovers=%d vectorized-iters=%d leftover-elements=%d\n",
				st.Takeovers, st.VectorizedIters, st.LeftoverElements)
			fmt.Printf("            cache: accesses=%d hits=%d  vcache: accesses=%d overflows=%d\n",
				st.DSACacheAccesses, st.DSACacheHits, st.VCacheAccesses, st.VCacheOverflows)
			fmt.Printf("            analysis=%d ticks (%.2f%% of run, hidden)  switch overhead=%d ticks\n",
				st.AnalysisTicks, st.DetectionShare(r.Ticks)*100, st.OverheadTicks)
			fmt.Printf("            loop census: %v\n", st.ByKind)
			if st.Fallbacks > 0 {
				fmt.Printf("            fallbacks=%d %s dropped-requests=%d\n",
					st.Fallbacks, fmtReasons(st.FallbackReasons), st.DroppedRequests)
			}
			if len(st.RejectedReasons) > 0 {
				keys := make([]string, 0, len(st.RejectedReasons))
				for k := range st.RejectedReasons {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				fmt.Printf("            rejections:")
				for _, k := range keys {
					fmt.Printf(" %s×%d", k, st.RejectedReasons[k])
				}
				fmt.Println()
			}
		}
		if r.Report != nil {
			fmt.Printf("\nautovec:    %d loops vectorized, inhibitors %v\n",
				r.Report.VectorizedCount(), r.Report.Inhibitors())
		}
	}

	if *loops {
		sys, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), dsa.DefaultConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w.Setup(sys.M)
		if err := sys.Run(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("\nDSA cache after an extended-DSA run:")
		for _, lr := range sys.E.Report() {
			if lr.Vectorizable {
				fmt.Printf("  loop @%d: %s, %d lanes of %s\n", lr.LoopID, lr.Kind, lr.Lanes, lr.ElemDT)
				for _, in := range lr.Listing {
					fmt.Printf("      %s\n", in)
				}
			} else {
				fmt.Printf("  loop @%d: not vectorizable (%s)\n", lr.LoopID, lr.Reason)
			}
		}
	}
}

// runGuarded executes workloads under the guarded-takeover robustness
// modes and returns the process exit code. With name empty, the whole
// suite runs — the acceptance gate `dsasim -verify`.
func runGuarded(name string, kind dsa.FaultKind, everyN uint64, verify bool) int {
	var list []*workloads.Workload
	if name == "" {
		list = workloads.All()
	} else {
		w, err := workloads.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		list = []*workloads.Workload{w}
	}

	cfg := dsa.DefaultConfig()
	cfg.Fault = dsa.FaultConfig{Kind: kind, EveryN: everyN}
	if kind != dsa.FaultNone {
		// Fault runs need the oracle as a safety net: silent classes
		// (corrupt-cache, truncated-range) are invisible to the guards.
		cfg.Verify = dsa.VerifyConfig{Enabled: true, Fallback: true}
	} else if verify {
		cfg.Verify = dsa.VerifyConfig{Enabled: true}
	}

	failed := 0
	for _, w := range list {
		sys, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
			failed++
			continue
		}
		w.Setup(sys.M)
		if err := sys.Run(); err != nil {
			fmt.Printf("%-12s FAIL  %v\n", w.Name, err)
			failed++
			continue
		}
		if err := w.Check(sys.M); err != nil {
			fmt.Printf("%-12s FAIL  output check: %v\n", w.Name, err)
			failed++
			continue
		}
		st := sys.Stats()
		line := fmt.Sprintf("%-12s ok    takeovers=%d verified=%d divergences=%d",
			w.Name, st.Takeovers, st.VerifiedTakeovers, st.Divergences)
		if st.Fallbacks > 0 {
			line += fmt.Sprintf(" fallbacks=%d %v", st.Fallbacks, fmtReasons(st.FallbackReasons))
		}
		fmt.Println(line)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d workloads failed\n", failed, len(list))
		return 1
	}
	return 0
}

// fmtReasons renders a reason histogram deterministically.
func fmtReasons(m map[string]uint64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s×%d", k, m[k]))
	}
	return "(" + strings.Join(parts, " ") + ")"
}
