package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// runnerSys drives runner.Pool.Do directly: the researcher's batch
// path, with no HTTP in front.
type runnerSys struct {
	pool      *runner.Pool
	cycle     *cycle
	work      map[string]*workloads.Workload
	generated bool
	gate      *gate
	// walkDir holds the stage walk's checkpoint files; empty when the
	// pool has no snapshot dir, so the walk does not checkpoint either.
	walkDir string
	seq     atomic.Uint64

	mu    sync.Mutex
	walks []walkResult
}

// setupSuiteBatch resolves the built-in suite and builds a pool with
// no snapshot dir.
func setupSuiteBatch(in *inputs, dir string) (system, error) {
	work := map[string]*workloads.Workload{}
	for _, w := range workloads.All() {
		work[w.Name] = w
	}
	return &runnerSys{
		pool:  runner.NewPool(runner.Options{Workers: workers}),
		cycle: newCycle(in.suite, in.seed),
		work:  work,
		gate:  in.gate,
	}, nil
}

// setupLongCheckpoint parses and wraps the generated sources and
// builds a pool that checkpoints at the runner's default cadence.
func setupLongCheckpoint(in *inputs, dir string) (system, error) {
	walkDir := filepath.Join(dir, "walk")
	if err := os.MkdirAll(walkDir, 0o755); err != nil {
		return nil, err
	}
	work := map[string]*workloads.Workload{}
	for _, s := range in.sources {
		if _, err := asm.Parse(s.name, s.text); err != nil {
			return nil, fmt.Errorf("generated source %s: %w", s.name, err)
		}
		work[s.name] = sourceWorkload(s)
	}
	return &runnerSys{
		pool:      runner.NewPool(runner.Options{Workers: workers, SnapshotDir: filepath.Join(dir, "snapshots")}),
		cycle:     newCycle(in.long, in.seed),
		work:      work,
		generated: true,
		gate:      in.gate,
		walkDir:   walkDir,
	}, nil
}

func (s *runnerSys) jobs() *cycle { return s.cycle }

func (s *runnerSys) close() error {
	s.pool.Close()
	return nil
}

// do runs the next job through Pool.Do and checks its output. Traced,
// it first walks the job's stages under spans, then times the Pool.Do
// of the same job, so the runner's residual cost is measured.
func (s *runnerSys) do(ctx context.Context, caller int, tr *tracer) sample {
	o, ok := s.cycle.next()
	if !ok {
		return sample{stopped: true}
	}
	smp := sample{job: true, op: o}
	cfg, dsaOff, err := server.ConfigByName(o.config)
	if err != nil {
		smp.err = err
		return smp
	}
	w := s.work[o.input]
	// Names are unique per job: the checkpoint files are named by job.
	id := fmt.Sprintf("%s-%s-%d", o.input, o.config, s.seq.Add(1))

	var wr walkResult
	if tr != nil {
		wr, err = s.walk(tr, id, w, cfg, dsaOff)
		if err == nil {
			err = s.gate.check(o, wr.out, s.generated)
		}
		if err != nil {
			smp.err = fmt.Errorf("stage walk: %w", err)
			return smp
		}
		wr.op = o
	}

	job := runner.Job{Name: id, Workload: w, CPU: cpu.DefaultConfig(), DSA: cfg, DSAOff: dsaOff}
	sp := tr.start(id, spanDo, 0)
	t := time.Now()
	res := s.pool.Do(ctx, job)
	smp.lat = time.Since(t)
	tr.finish(sp)
	if res.Status != runner.StatusOK || res.ResumeNote != "" {
		smp.err = fmt.Errorf("%s: status %s cause %q note %q: %v", id, res.Status, res.Cause, res.ResumeNote, res.Err)
		return smp
	}
	smp.out = outcome{digest: res.MemSum, ticks: res.Ticks, steps: res.Steps}
	smp.energyNJ = res.Energy.Total()
	if err := s.gate.check(o, smp.out, s.generated); err != nil {
		smp.err = err
		return smp
	}
	if tr != nil {
		wr.do, wr.doWall, wr.attempts = smp.lat, res.Wall, res.Attempts
		s.mu.Lock()
		s.walks = append(s.walks, wr)
		s.mu.Unlock()
	}
	return smp
}

// walkResult is what one walked job measured.
type walkResult struct {
	op  op
	out outcome
	// pipeline is the summed time of the stages runner.attempt also
	// runs (construct, setup, run with its checkpoints, check, digest).
	pipeline time.Duration
	runSelf  time.Duration // run minus its checkpoints
	saves    int
	bytes    int
	l1, l2   mem.Stats
	counts   cpu.Counts
	stats    *dsa.Stats // nil for scalar jobs
	// The timed Pool.Do of the same job.
	do, doWall time.Duration
	attempts   int
}

// saved is one checkpoint file the walk wrote.
type saved struct {
	path  string
	steps uint64
}

// walk runs one job stage by stage through the public calls
// runner.attempt makes, each under a span: construct, setup, run
// (checkpointing at the runner's default cadence when the pool has a
// snapshot dir), check and digest. It then encodes the result as the
// service does and restores every checkpoint it wrote into a fresh
// system. Timing from outside can under-read costs that arise inside
// the runner; the Pool.Do residual shows that gap.
func (s *runnerSys) walk(tr *tracer, id string, w *workloads.Workload, cfg dsa.Config, dsaOff bool) (walkResult, error) {
	var r walkResult
	root := tr.start(id, spanJob, 0)
	defer tr.finish(root)
	// stage runs f under a span; the stages runner.attempt also runs
	// add to the pipeline time.
	stage := func(name string, pipeline bool, f func(sp int) error) error {
		sp := tr.start(id, name, root)
		t := time.Now()
		err := f(sp)
		if pipeline {
			r.pipeline += time.Since(t)
		}
		tr.finish(sp)
		return err
	}

	var prog *armlite.Program
	build := func() (*cpu.Machine, *dsa.System, error) {
		if dsaOff {
			m, err := cpu.New(prog, cpu.DefaultConfig())
			return m, nil, err
		}
		sys, err := dsa.NewSystem(prog, cpu.DefaultConfig(), cfg)
		if err != nil {
			return nil, nil, err
		}
		return sys.M, sys, nil
	}
	var (
		m   *cpu.Machine
		sys *dsa.System
	)
	err := stage(stageConstruct, true, func(sp int) error {
		p := tr.start(id, spanParse, sp)
		prog = w.Scalar()
		tr.finish(p)
		var err error
		m, sys, err = build()
		return err
	})
	if err != nil {
		return r, err
	}
	if err := stage(stageSetup, true, func(int) error { w.Setup(m); return nil }); err != nil {
		return r, err
	}

	var files []saved
	defer func() {
		for _, f := range files {
			os.Remove(f.path)
		}
	}()
	err = stage(stageRun, true, func(sp int) error {
		var ckpt time.Duration
		if s.walkDir != "" {
			last, lastWall := m.Steps, time.Now()
			hook := func() error {
				if m.Steps-last < runner.DefaultSnapshotEvery && time.Since(lastWall) < runner.DefaultSnapshotInterval {
					return nil
				}
				t := time.Now()
				cs := tr.start(id, stageCheckpointSave, sp)
				defer tr.finish(cs)
				var wr snapshot.Writer
				if sys != nil {
					if err := sys.SaveState(&wr); err != nil {
						return err
					}
				} else {
					m.SaveState(&wr)
				}
				r.bytes += len(wr.Bytes())
				ws := tr.start(id, spanWrite, cs)
				path := filepath.Join(s.walkDir, fmt.Sprintf("%s.%d.dsnp", id, len(files)))
				err := wr.WriteFile(path)
				tr.finish(ws)
				ckpt += time.Since(t)
				if err != nil {
					return err
				}
				files = append(files, saved{path: path, steps: m.Steps})
				r.saves++
				last, lastWall = m.Steps, time.Now()
				return nil
			}
			if sys != nil {
				sys.SetRunHook(hook)
			} else {
				m.SetRunHook(hook)
			}
		}
		t := time.Now()
		var err error
		if sys != nil {
			err = sys.Run()
		} else {
			err = m.Run(nil)
		}
		r.runSelf = time.Since(t) - ckpt
		return err
	})
	if err == nil {
		err = stage(stageCheck, true, func(int) error { return w.Check(m) })
	}
	var digest uint64
	if err == nil {
		err = stage(stageDigest, true, func(int) error { digest = m.Mem.Sum64(); return nil })
	}
	if err != nil {
		return r, err
	}

	r.out = outcome{digest: digest, ticks: m.Ticks, steps: m.Steps}
	r.l1, r.l2, r.counts = m.Caches.L1Stats(), m.Caches.L2Stats(), m.Counts
	res := runner.Result{Job: id, Status: runner.StatusOK, Attempts: 1, Ticks: m.Ticks, Steps: m.Steps, MemSum: digest}
	var events energy.DSAEvents
	if sys != nil {
		r.stats = sys.Stats().Snapshot()
		res.Stats = r.stats
		events = r.stats.EnergyEvents()
	}
	res.Energy = energy.Compute(energy.DefaultParams(), m.Counts, r.l1, r.l2, events)
	err = stage(stageResultEncode, false, func(int) error {
		_, err := json.Marshal(server.ResultFromRunner(res))
		return err
	})

	for _, f := range files {
		if err != nil {
			break
		}
		var fm *cpu.Machine
		var fsys *dsa.System
		if fm, fsys, err = build(); err != nil {
			break
		}
		err = stage(stageRestore, false, func(int) error {
			rd, err := snapshot.ReadFile(f.path)
			if err != nil {
				return err
			}
			if fsys != nil {
				return fsys.RestoreState(rd)
			}
			return fm.RestoreState(rd)
		})
		if err == nil && fm.Steps != f.steps {
			err = fmt.Errorf("restore of %s resumed at step %d, saved at %d", f.path, fm.Steps, f.steps)
		}
	}
	return r, err
}

// layers computes the per-layer metrics from the traced phase's walks.
func (s *runnerSys) layers(tr *tracer, m metricSet) error {
	s.mu.Lock()
	walks := s.walks
	s.mu.Unlock()
	if len(walks) == 0 {
		return fmt.Errorf("the traced phase completed no jobs")
	}
	by := tr.byName()
	m["mem.construct_ms"] = by[stageConstruct].meanSelfMS()
	m["asm.parse_ms"] = by[spanParse].meanSelfMS()
	m["workloads.setup_ms"] = by[stageSetup].meanSelfMS()
	m["workloads.check_ms"] = by[stageCheck].meanSelfMS()
	m["mem.digest_ms"] = by[stageDigest].meanSelfMS()
	m["server.result_encode_ms"] = by[stageResultEncode].meanSelfMS()

	var do, over, wait, att []float64
	var saves, bytes int
	runs := map[string]map[string][]float64{} // config → input → run self ms
	var scalarSteps uint64
	var scalarRun time.Duration
	distinct := map[string]walkResult{}
	for _, w := range walks {
		do = append(do, ms(w.do))
		over = append(over, ms(w.do-w.pipeline))
		wait = append(wait, ms(w.do-w.doWall))
		att = append(att, float64(w.attempts))
		saves += w.saves
		bytes += w.bytes
		if runs[w.op.config] == nil {
			runs[w.op.config] = map[string][]float64{}
		}
		runs[w.op.config][w.op.input] = append(runs[w.op.config][w.op.input], ms(w.runSelf))
		if w.op.config == "scalar" {
			scalarSteps += w.out.steps
			scalarRun += w.runSelf
		}
		if _, ok := distinct[w.op.key()]; !ok {
			distinct[w.op.key()] = w
		}
	}
	m["runner.job_ms"] = mean(do)
	m["runner.overhead_ms"] = mean(over)
	m["runner.queue_wait_ms"] = mean(wait)
	m["runner.attempts_per_job"] = mean(att)
	if saves > 0 {
		m["snapshot.save_ms"] = by[stageCheckpointSave].meanSelfMS()
		m["snapshot.write_ms"] = by[spanWrite].meanSelfMS()
		m["snapshot.restore_ms"] = by[stageRestore].meanSelfMS()
		m["snapshot.bytes"] = float64(bytes) / float64(saves)
		m["snapshot.count_per_job"] = float64(saves) / float64(len(walks))
	}
	all := func(config string) []float64 {
		var v []float64
		for _, r := range runs[config] {
			v = append(v, r...)
		}
		return v
	}
	if scalarRun > 0 {
		m["cpu.run_ms.scalar"] = mean(all("scalar"))
		m["cpu.msteps_per_s"] = float64(scalarSteps) / 1e6 / scalarRun.Seconds()
	}
	if v := all("original"); len(v) > 0 {
		m["dsa.run_ms.original"] = mean(v)
	}
	if v := all("extended"); len(v) > 0 {
		m["dsa.run_ms.extended"] = mean(v)
		var ratios []float64
		for in, ext := range runs["extended"] {
			if sc := runs["scalar"][in]; len(sc) > 0 && mean(sc) > 0 {
				ratios = append(ratios, mean(ext)/mean(sc))
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			m["dsa.wall_ratio.extended"] = geomean(ratios)
		}
	}
	simulatedLayers(distinct, m)
	return nil
}

// simulatedLayers sums the simulated counters over the distinct jobs
// (input × config) of the traced phase, so they repeat exactly.
func simulatedLayers(distinct map[string]walkResult, m metricSet) {
	var l1h, l1m, l2h, l2m uint64
	var obs, loops, takeovers, rejected, acc, hits, iters, fallbacks, vecOps uint64
	var analysis, ticks int64
	dsaJobs := 0
	for _, w := range distinct {
		l1h, l1m = l1h+w.l1.Hits, l1m+w.l1.Misses
		l2h, l2m = l2h+w.l2.Hits, l2m+w.l2.Misses
		if w.stats == nil {
			continue
		}
		dsaJobs++
		st := w.stats
		obs += st.Observations
		loops += st.LoopsDetected
		takeovers += st.Takeovers
		for _, n := range st.RejectedReasons {
			rejected += n
		}
		acc += st.DSACacheAccesses
		hits += st.DSACacheHits
		iters += st.VectorizedIters
		fallbacks += st.Fallbacks
		analysis += st.AnalysisTicks
		ticks += w.out.ticks
		vecOps += w.counts.VecOps
	}
	if l1h+l1m > 0 {
		m["mem.l1_miss_ratio"] = float64(l1m) / float64(l1h+l1m)
	}
	if l2h+l2m > 0 {
		m["mem.l2_miss_ratio"] = float64(l2m) / float64(l2h+l2m)
	}
	if dsaJobs == 0 {
		return
	}
	m["dsa.observations"] = float64(obs)
	m["dsa.loops_detected"] = float64(loops)
	m["dsa.takeovers"] = float64(takeovers)
	m["dsa.vectorized_iters"] = float64(iters)
	m["dsa.fallbacks"] = float64(fallbacks)
	m["neon.vec_ops"] = float64(vecOps)
	if takeovers+rejected > 0 {
		m["dsa.takeover_yield"] = float64(takeovers) / float64(takeovers+rejected)
	}
	if acc > 0 {
		m["dsa.cache_hit_ratio"] = float64(hits) / float64(acc)
	}
	if ticks > 0 {
		m["dsa.analysis_share"] = float64(analysis) / float64(ticks)
	}
}
