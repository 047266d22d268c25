package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/workloads"
)

// batchFlags carries the -batch mode's knobs from main.
type batchFlags struct {
	workloads string // comma list ("" = whole suite)
	configs   string // comma list of DSA config names
	workers   int
	timeout   time.Duration
	retries   int
	memBudget int64 // MiB (0 = runner default, -1 = unlimited)
	fault     dsa.FaultKind
	faultN    uint64
	verifyOn  bool
	hard      bool
	verbose   bool
	snapDir   string
	snapEvery uint64
	resume    bool
	// jsonOut emits one JSON result line per job to stdout — the same
	// ResultJSON schema the dsasimd service returns, so CLI and
	// service results are diffable. Human-readable reporting moves to
	// stderr.
	jsonOut bool
}

// runBatch executes the workload × config job matrix under the
// supervisor and prints per-job lines plus the aggregate report.
// Returns the process exit code.
func runBatch(f batchFlags) int {
	var ws []*workloads.Workload
	if f.workloads == "" {
		ws = workloads.All()
	} else {
		for _, name := range strings.Split(f.workloads, ",") {
			w, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			ws = append(ws, w)
		}
	}

	var jobs []runner.Job
	for _, cfgName := range strings.Split(f.configs, ",") {
		cfgName = strings.TrimSpace(cfgName)
		cfg, dsaOff, err := server.ConfigByName(cfgName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if !dsaOff {
			cfg.Fault = dsa.FaultConfig{Kind: f.fault, EveryN: f.faultN}
			switch {
			case f.fault != dsa.FaultNone:
				// Faulted batches need the oracle as the safety net for
				// the silent classes; -hard surfaces divergences to the
				// retry/degradation ladder instead.
				cfg.Verify = dsa.VerifyConfig{Enabled: true, Fallback: !f.hard}
			case f.verifyOn:
				cfg.Verify = dsa.VerifyConfig{Enabled: true, Fallback: !f.hard}
			}
		}
		for _, w := range ws {
			jobs = append(jobs, runner.Job{
				Name:     w.Name + "/" + cfgName,
				Workload: w,
				CPU:      cpu.DefaultConfig(),
				DSA:      cfg,
				DSAOff:   dsaOff,
			})
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := runner.Options{
		Workers:       f.workers,
		Timeout:       f.timeout,
		Retries:       f.retries,
		Backoff:       100 * time.Millisecond,
		SnapshotDir:   f.snapDir,
		SnapshotEvery: f.snapEvery,
		Resume:        f.resume,
	}
	if f.memBudget > 0 {
		opts.MemBudgetBytes = f.memBudget << 20
	} else if f.memBudget < 0 {
		opts.MemBudgetBytes = -1
	}

	rep := runner.Run(ctx, jobs, opts)

	if f.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range rep.Results {
			if err := enc.Encode(server.ResultFromRunner(r)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "batch: %d jobs — %d ok, %d degraded, %d failed; %d retries; wall %s\n",
			len(rep.Results), rep.OK, rep.Degrade, rep.Failed, rep.Retries, rep.Wall.Round(time.Millisecond))
		if rep.Failed > 0 {
			return 1
		}
		return 0
	}

	for _, r := range rep.Results {
		line := fmt.Sprintf("%-24s %-9s", r.Job, r.Status)
		if r.Cause != "" {
			line += " cause=" + r.Cause
		}
		if r.Attempts > 1 {
			line += fmt.Sprintf(" attempts=%d", r.Attempts)
		}
		if r.ResumedFromStep > 0 {
			line += fmt.Sprintf(" resumed-from=%d", r.ResumedFromStep)
		}
		if r.ResumeNote != "" {
			line += " snapshot=" + r.ResumeNote
		}
		if r.Stats != nil {
			line += fmt.Sprintf(" takeovers=%d", r.Stats.Takeovers)
			if r.Stats.Fallbacks > 0 {
				line += fmt.Sprintf(" fallbacks=%d %s", r.Stats.Fallbacks, fmtReasons(r.Stats.FallbackReasons))
			}
		}
		line += fmt.Sprintf(" wall=%s", r.Wall.Round(100*time.Microsecond))
		fmt.Println(line)
		if f.verbose && r.Err != nil {
			fmt.Printf("    error: %v\n", r.Err)
		}
	}
	fmt.Printf("\nbatch: %d jobs — %d ok, %d degraded, %d failed; %d retries; wall %s\n",
		len(rep.Results), rep.OK, rep.Degrade, rep.Failed, rep.Retries, rep.Wall.Round(time.Millisecond))

	if rep.Failed > 0 {
		return 1
	}
	return 0
}
