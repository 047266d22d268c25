// Command jobbench is the repository's job-level benchmark. It drives
// one of three workloads through the public entry points of
// internal/runner, internal/server and internal/cluster with one or two
// closed-loop callers, checks every job's output against a reference,
// and prints the run's metrics as one JSON object on the last line of
// standard output. Run it from the repository root through the build
// wrapper:
//
//	bash jobbench/run.sh --workload suite-batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs half the work untraced and half traced, each half on a freshly
// set-up system, and reports the per-layer metrics. README.md describes
// the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Load shape: closed-loop callers against a two-worker system, one
// process, on a two-CPU host. Researchers and clients submit a job and
// wait for its result before the next, so the loop is closed.
const (
	// callers is the most closed-loop callers a workload uses; each
	// workload sets its own count (workloadDef.callers).
	callers = 2
	workers = 2
	// minJobs keeps at least ten samples beyond p90: an untraced run
	// runs enough whole cycles for this many jobs.
	minJobs = 100
	// rounds is how many times an untraced run sets the system up
	// afresh and drives it for the same number of whole cycles. Each
	// timed end-to-end metric is the median over the rounds, so a
	// stretch of interference on the shared host moves a minority of
	// the rounds and not the reported value.
	rounds = 3
	// setupProbes is how many fresh processes an untraced run starts to
	// time set-up; setup_s is the median.
	setupProbes = 21
	// maxMeasure caps one phase, so the process ends well within three
	// minutes on a slow host; a phase cut short says so in the report.
	maxMeasure = 120 * time.Second
	// opTimeout bounds one operation, so a stuck job fails the run
	// instead of hanging it.
	opTimeout = 30 * time.Second
)

// system is one system under test, set up and ready for jobs.
type system interface {
	// do runs caller's next operation; tr is nil outside the traced
	// phase.
	do(ctx context.Context, caller int, tr *tracer) sample
	// jobs is the workload's job cycle. A phase runs a fixed number of
	// whole cycles, at least one, so every distinct job is measured and
	// the simulated counters are complete.
	jobs() *cycle
	// layers adds the per-layer metrics of a traced phase to m.
	layers(tr *tracer, m metricSet) error
	// close tears the system down and releases its state.
	close() error
}

// sample is one operation's record.
type sample struct {
	stopped  bool // the job cycle is finished; no operation ran
	job      bool // a job (counts toward jobs/s and latency); false for reads and rejections
	op       op
	lat      time.Duration
	out      outcome
	energyNJ float64
	err      error
}

// workloadDef names a workload and builds its system from a run's
// inputs in dir.
type workloadDef struct {
	name  string
	setup func(in *inputs, dir string) (system, error)
	// callers is how many closed-loop callers drive the workload, at
	// most the callers constant.
	callers int
	// rate is the workload's job rate in jobs/s on the reference host
	// (2 vCPUs, go1.24.0). It turns --seconds into a fixed number of
	// whole cycles, so a run measures about --seconds there and the
	// parent and child of a change run exactly the same jobs.
	rate float64
	// absent says why the per-layer metrics this workload does not
	// report are missing from it.
	absent string
	// note is a setting of the workload the report records.
	note string
}

var workloadDefs = []workloadDef{
	{"suite-batch", setupSuiteBatch, callers, 52,
		"suite-batch has no HTTP front end, and without a snapshot dir it never checkpoints", ""},
	// One caller: two long interpreter jobs side by side on the two
	// CPUs slow each other by up to 2.5x, so with two callers a job's
	// time depended on which job ran beside it.
	{"long-checkpoint", setupLongCheckpoint, 1, 1.4,
		"long-checkpoint has no HTTP front end", ""},
	{"service-cluster", setupCluster, callers, 18,
		"service-cluster does not walk the runner stages, and its HTTP results carry no cache or engine-internal counters",
		fmt.Sprintf("lease TTL %s", leaseTTL)},
}

func lookupWorkload(name string) (*workloadDef, error) {
	names := make([]string, len(workloadDefs))
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i], nil
		}
		names[i] = workloadDefs[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// cyclesFor is how many whole cycles of a mix with perCycle jobs take
// about window at the workload's reference rate: at least one, and at
// least enough for minJobs jobs.
func (d *workloadDef) cyclesFor(perCycle int, window time.Duration, minJobs int) int {
	n := int(math.Round(window.Seconds() * d.rate / float64(perCycle)))
	return max(n, (minJobs+perCycle-1)/perCycle, 1)
}

// roundCycles is how many whole cycles each of an untraced run's rounds
// drives: together the rounds take about window at the workload's
// reference rate and run at least minJobs jobs.
func (d *workloadDef) roundCycles(perCycle int, window time.Duration, minJobs, rounds int) int {
	n := int(math.Round(window.Seconds() * d.rate / float64(perCycle) / float64(rounds)))
	perRound := (minJobs + rounds - 1) / rounds
	return max(n, (perRound+perCycle-1)/perCycle, 1)
}

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	minJobs  int
	rounds   int // rounds of an untraced run
	goldens  map[string]outcome
	stateDir string // parent of the per-setup state directories
	traceDir string // where a traced run writes its spans
	report   io.Writer
	// probe returns the command of one set-up probe process with the
	// given arguments (see readyProbe).
	probe func(args ...string) *exec.Cmd
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ready-probe" {
		if err := readyProbe(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "jobbench ready-probe: %v\n", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: suite-batch, long-checkpoint or service-cluster")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "run length in seconds at the workload's reference job rate; sets the run's fixed work")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "jobbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	goldens, err := loadGoldens(goldenPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v (run from the repository root)\n", err)
		os.Exit(1)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(runConfig{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		minJobs:  minJobs,
		rounds:   rounds,
		goldens:  goldens,
		stateDir: filepath.Join(".bench_build", "state"),
		traceDir: filepath.Join(".bench_build", "traces"),
		report:   os.Stdout,
		probe: func(args ...string) *exec.Cmd {
			return exec.Command(exe, append([]string{"ready-probe"}, args...)...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jobbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run times the workload's set-up in fresh processes, then sets it up
// in this process, drives it for the run's work and computes the
// metrics.
func run(cfg runConfig) (*result, error) {
	def, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	in := newInputs(cfg.seed, cfg.goldens)
	fmt.Fprintf(cfg.report, "jobbench: workload=%s seed=%d window=%s trace=%v callers=%d workers=%d %s\n",
		cfg.workload, cfg.seed, cfg.window, cfg.trace, def.callers, workers, def.note)
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return nil, err
	}

	m := metricSet{}
	var all []sample
	if !cfg.trace {
		// Half the set-up probes run before the measured phase and half
		// after it, so setup_s samples the host at two moments.
		setups, err := probeSetups(cfg, setupProbes/2)
		if err != nil {
			return nil, err
		}
		steal0, cpu0 := hostCPU()
		var phases []phase
		for r := 0; r < cfg.rounds; r++ {
			err = withSystem(cfg, def, in, func(sys system) error {
				phases = append(phases, drive(sys, nil, def.callers, def.roundCycles(sys.jobs().jobsPerCycle(), cfg.window, cfg.minJobs, cfg.rounds)))
				if t, ok := sys.(interface{ tableSize() int }); ok && r == 0 {
					fmt.Fprintf(cfg.report, "jobbench: the job table holds %d jobs at the end of each round\n", t.tableSize())
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		if steal1, cpu1 := hostCPU(); cpu1 > cpu0 {
			fmt.Fprintf(cfg.report, "jobbench: the hypervisor took %.1f%% of this host's CPU time during the rounds (steal)\n",
				100*float64(steal1-steal0)/float64(cpu1-cpu0))
		}
		if err := endToEndMetrics(m, phases, in.gate, cfg.report); err != nil {
			return nil, err
		}
		after, err := probeSetups(cfg, setupProbes-setupProbes/2)
		if err != nil {
			return nil, err
		}
		m["setup_s"] = quantile(append(setups, after...), 0.5)
		for _, ph := range phases {
			all = append(all, ph.samples...)
		}
	} else if all, err = tracedRun(cfg, def, in, m); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range all {
		res.Attempted++
		if s.err != nil {
			res.Failed++
			res.Correct = false
			if res.Failed <= 5 {
				fmt.Fprintf(cfg.report, "jobbench: FAILED %s: %v\n", s.op.key(), s.err)
			}
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	var absent []string
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			absent = append(absent, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(absent) > 0 {
		fmt.Fprintf(cfg.report, "jobbench: absent, reported as 0: %s (%s)\n", strings.Join(absent, " "), def.absent)
	}
	return res, nil
}

// withSystem sets the workload's system up in a fresh state directory,
// hands it to f, and tears it down.
func withSystem(cfg runConfig, def *workloadDef, in *inputs, f func(system) error) error {
	dir, err := os.MkdirTemp(cfg.stateDir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := def.setup(in, dir)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	err = f(sys)
	if cerr := sys.close(); cerr != nil && err == nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	return err
}

// probeSetups times set-up from process start: it starts n fresh
// processes one after another, each of which sets the workload's
// system up and prints a line once it is ready, and returns the time
// from each start to that line in seconds. Process start-up, package
// initialisation and input generation are part of each reading.
func probeSetups(cfg runConfig, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		cmd := cfg.probe("--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--state", cfg.stateDir)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		// A probe that is not ready within opTimeout is killed; its read
		// and Wait then fail and report it.
		kill := time.AfterFunc(opTimeout, func() { _ = cmd.Process.Kill() })
		r := bufio.NewReader(stdout)
		line, rerr := r.ReadString('\n')
		d := time.Since(t)
		// The probe prints nothing after its line; draining only lets
		// Wait close the pipe, and Wait reports any failure.
		_, _ = io.Copy(io.Discard, r)
		werr := cmd.Wait()
		kill.Stop()
		if rerr != nil || werr != nil || line != probeReady+"\n" {
			return nil, fmt.Errorf("setup probe: read %q (%v), exit %v: %s", line, rerr, werr, strings.TrimSpace(stderr.String()))
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// probeReady is the line a set-up probe prints once its system is ready.
const probeReady = "ready"

// readyProbe is one set-up probe process: it generates the run's inputs,
// sets the workload's system up in a fresh state directory, writes
// probeReady to out once the system is ready for its first job, and
// tears the system down.
func readyProbe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ready-probe", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to set up")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	state := fs.String("state", "", "parent of the state directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	return withSystem(runConfig{workload: *name, stateDir: *state}, def, newInputs(*seed, nil), func(system) error {
		_, err := fmt.Fprintln(out, probeReady)
		return err
	})
}

// phase is one measured stretch of closed-loop load.
type phase struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration // CPU time the process used, user and system
	cycles  int
	cut     bool // stopped at maxMeasure before its cycles were done
}

// drive runs the closed loop for the given number of whole cycles of
// the system's job mix: each caller sends its next operation as soon
// as the previous one returns. The work is fixed, so the time it takes
// is what the phase measures; only a phase that passes maxMeasure stops
// early (operations in flight finish and count).
func drive(sys system, tr *tracer, callers, cycles int) phase {
	cpu0 := cpuTime()
	start := time.Now()
	jobs := sys.jobs()
	jobs.start(cycles)
	var mu sync.Mutex
	var samples []sample
	cut := false
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if time.Since(start) > maxMeasure {
					jobs.stop()
					mu.Lock()
					cut = true
					mu.Unlock()
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				s := sys.do(ctx, c, tr)
				cancel()
				if s.stopped {
					return
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return phase{samples: samples, elapsed: time.Since(start), cpu: cpuTime() - cpu0, cycles: cycles, cut: cut}
}

// jobs returns the completed jobs of a phase.
func (p phase) jobs() []sample {
	var out []sample
	for _, s := range p.samples {
		if s.job && s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// callRate is the job rate the callers' job calls sustain: callers ÷
// mean job latency. The traced run compares it with tracing off and
// on; unlike jobs/s over the wall window it leaves out the stage walk a
// traced runner caller does between its jobs, which is measurement,
// not load.
func callRate(jobs []sample, callers int) float64 {
	var sum time.Duration
	for _, s := range jobs {
		sum += s.lat
	}
	if sum == 0 {
		return 0
	}
	return float64(len(jobs)) * float64(callers) / sum.Seconds()
}

// endToEndMetrics computes the user-visible metrics of an untraced
// run's rounds. The timed metrics are each round's value, medianed over
// the rounds; errors count over every operation.
func endToEndMetrics(m metricSet, phases []phase, g *gate, report io.Writer) error {
	var rate, p50, p90, eqRate []float64
	var done []sample
	ops, failed := 0, 0
	for i, ph := range phases {
		var lat []float64
		roundFailed := 0
		for _, s := range ph.samples {
			if s.job {
				lat = append(lat, ms(s.lat))
			}
			if s.err != nil {
				roundFailed++
			}
		}
		jobs := ph.jobs()
		var eq uint64
		for _, s := range jobs {
			if n, ok := g.scalarSteps(s.op.input); ok {
				eq += n
			}
		}
		secs := ph.elapsed.Seconds()
		rate = append(rate, float64(len(jobs))/secs)
		eqRate = append(eqRate, float64(eq)/1e6/secs)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		fmt.Fprintf(report, "jobbench: round %d: %d jobs in %.2fs (%d cycles, %d operations, %d failed): %.2f jobs/s, p50 %.1f ms, p90 %.1f ms, %.2f CPU s\n",
			i+1, len(jobs), secs, ph.cycles, len(ph.samples), roundFailed, rate[i], p50[i], p90[i], ph.cpu.Seconds())
		if ph.cut {
			fmt.Fprintf(report, "jobbench: round %d passed %s and stopped before its %d cycles\n", i+1, maxMeasure, ph.cycles)
		}
		ops += len(ph.samples)
		failed += roundFailed
		done = append(done, jobs...)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	speedup, savings := paperFigures(done)
	m["jobs_per_s"] = quantile(rate, 0.5)
	m["job_p50_ms"] = quantile(p50, 0.5)
	m["job_p90_ms"] = quantile(p90, 0.5)
	m["eq_msteps_per_s"] = quantile(eqRate, 0.5)
	m["ok_ratio"] = 1
	if ops > 0 {
		m["ok_ratio"] = 1 - float64(failed)/float64(ops)
	}
	m["peak_rss_mb"] = rss
	m["dsa_speedup_geomean"] = speedup
	m["energy_savings_pct"] = savings
	fmt.Fprintf(report, "jobbench: %d jobs in %d rounds (%d operations, %d failed); timed metrics are medians over the rounds\n",
		len(done), len(phases), ops, failed)
	fmt.Fprintf(report, "jobbench: energy savings %.2f%% vs the paper's 45%% (error %+.2f points); DSA speedup geomean %.4fx (the paper publishes no scalar-relative geomean)\n",
		savings, savings-45, speedup)
	return nil
}

// paperFigures computes, over the inputs that completed under both
// scalar and extended, the geomean of scalar ticks ÷ extended ticks and
// the mean energy saving 1 − E_extended/E_scalar in percent. Both are
// simulated quantities and repeat exactly for a given input set.
func paperFigures(jobs []sample) (speedup, savingsPct float64) {
	type pair struct{ scalar, ext *sample }
	by := map[string]*pair{}
	for i := range jobs {
		s := &jobs[i]
		p := by[s.op.input]
		if p == nil {
			p = &pair{}
			by[s.op.input] = p
		}
		switch s.op.config {
		case "scalar":
			p.scalar = s
		case "extended":
			p.ext = s
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	var ratios, savings []float64
	for _, n := range names {
		p := by[n]
		if p.scalar == nil || p.ext == nil || p.ext.out.ticks == 0 || p.scalar.energyNJ == 0 {
			continue
		}
		ratios = append(ratios, float64(p.scalar.out.ticks)/float64(p.ext.out.ticks))
		savings = append(savings, 100*(1-p.ext.energyNJ/p.scalar.energyNJ))
	}
	return geomean(ratios), mean(savings)
}

// tracedRun runs half the run's work untraced and half traced, each
// half on a freshly set-up system so both start from the same empty
// state, then computes the per-layer metrics. The traced half runs at
// least one whole cycle, so every distinct job is measured.
func tracedRun(cfg runConfig, def *workloadDef, in *inputs, m metricSet) ([]sample, error) {
	var plain, traced phase
	var before, after runtime.MemStats
	err := withSystem(cfg, def, in, func(sys system) error {
		runtime.ReadMemStats(&before)
		plain = drive(sys, nil, def.callers, def.cyclesFor(sys.jobs().jobsPerCycle(), cfg.window/2, 0))
		runtime.ReadMemStats(&after)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	err = withSystem(cfg, def, in, func(sys system) error {
		traced = drive(sys, tr, def.callers, plain.cycles)
		return sys.layers(tr, m)
	})
	if err != nil {
		return nil, err
	}

	if n := len(plain.jobs()); n > 0 {
		m["mem.alloc_mb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / (1 << 20)
	}
	if r0, r1 := callRate(plain.jobs(), def.callers), callRate(traced.jobs(), def.callers); r0 > 0 && r1 > 0 {
		m["trace.overhead_pct"] = 100 * (r0/r1 - 1)
	}
	if names, pct := stageShares(tr.byName()); names != nil {
		var b strings.Builder
		for i, n := range names {
			fmt.Fprintf(&b, " %s=%.1f%%", n, pct[i])
		}
		fmt.Fprintf(cfg.report, "jobbench: stage self-time shares:%s\n", b.String())
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.report, "jobbench: %d untraced + %d traced jobs (%d cycles each); spans in %s\n",
		len(plain.jobs()), len(traced.jobs()), plain.cycles, path)
	return append(plain.samples, traced.samples...), nil
}
