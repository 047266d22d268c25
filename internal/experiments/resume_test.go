package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/snapshot"
	"repro/internal/vectorize"
	"repro/internal/workloads"
)

// The interrupt/resume differential oracle: for every golden workload
// × mode, kill the run at a pseudo-random step, snapshot at the kill
// point, resume a freshly built machine from the snapshot bytes, and
// require the resumed run's final memory digest, tick count, step
// count and DSA fallback attribution to be bit-identical to the
// uninterrupted run's. Any divergence means the snapshot misses state
// or restores it wrong.
//
// The kill step is derived from DSASIM_RESUME_SEED (default 1) and is
// printed on failure so a miss reproduces exactly. In -short mode (and
// via DSASIM_RESUME_WORKLOADS=a,b,c) the sweep runs on a subset.

// errKill is the sentinel the run hook aborts with at the kill point.
var errKill = errors.New("resume oracle: killed")

// runState is the comparable residue of one completed run.
type runState struct {
	memSum uint64
	ticks  int64
	steps  uint64
	stats  *dsa.Stats // nil for machine-only modes
}

// sim abstracts the two execution shapes (bare machine vs DSA system)
// behind the save/restore/run surface the oracle needs.
type sim struct {
	m   *cpu.Machine
	sys *dsa.System
}

func buildSim(w *workloads.Workload, mode Mode) (*sim, error) {
	switch mode {
	case ModeScalar:
		m := cpu.MustNew(w.Scalar(), cpu.DefaultConfig())
		w.Setup(m)
		return &sim{m: m}, nil
	case ModeAutoVec:
		prog, _, err := vectorize.AutoVectorize(w.Scalar(), vectorize.Options{NoAlias: w.NoAlias})
		if err != nil {
			return nil, err
		}
		m := cpu.MustNew(prog, cpu.DefaultConfig())
		w.Setup(m)
		return &sim{m: m}, nil
	case ModeHand:
		prog := w.Scalar()
		if w.Hand != nil {
			prog = w.Hand()
		}
		m := cpu.MustNew(prog, cpu.DefaultConfig())
		w.Setup(m)
		return &sim{m: m}, nil
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
		return &sim{m: s.M, sys: s}, nil
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
}

func (s *sim) setHook(fn func() error) {
	if s.sys != nil {
		s.sys.SetRunHook(fn)
	} else {
		s.m.SetRunHook(fn)
	}
}

func (s *sim) save(w *snapshot.Writer) error {
	if s.sys != nil {
		return s.sys.SaveState(w)
	}
	s.m.SaveState(w)
	return nil
}

func (s *sim) restore(r *snapshot.Reader) error {
	if s.sys != nil {
		return s.sys.RestoreState(r)
	}
	return s.m.RestoreState(r)
}

func (s *sim) run() error {
	if s.sys != nil {
		return s.sys.Run()
	}
	return s.m.Run(nil)
}

func (s *sim) state(w *workloads.Workload) (*runState, error) {
	if err := w.Check(s.m); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	st := &runState{memSum: s.m.Mem.Sum64(), ticks: s.m.Ticks, steps: s.m.Steps}
	if s.sys != nil {
		st.stats = s.sys.Stats().Snapshot()
	}
	return st, nil
}

// resumeWorkloads picks the sweep set: the env override, a fast subset
// in -short mode, the whole suite otherwise.
func resumeWorkloads(t *testing.T) []*workloads.Workload {
	if env := os.Getenv("DSASIM_RESUME_WORKLOADS"); env != "" {
		var ws []*workloads.Workload
		for _, name := range strings.Split(env, ",") {
			w, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
		return ws
	}
	if testing.Short() {
		var ws []*workloads.Workload
		for _, name := range []string{"mm_32x32", "str_prep", "bit_count"} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
		return ws
	}
	return workloads.All()
}

func resumeSeed() int64 {
	if env := os.Getenv("DSASIM_RESUME_SEED"); env != "" {
		var s int64
		if _, err := fmt.Sscan(env, &s); err == nil {
			return s
		}
	}
	return 1
}

func TestInterruptResumeOracle(t *testing.T) {
	seed := resumeSeed()
	modes := []Mode{ModeScalar, ModeAutoVec, ModeHand, ModeDSAOrig, ModeDSAExt}
	for _, w := range resumeWorkloads(t) {
		for _, mode := range modes {
			w, mode := w, mode
			t.Run(w.Name+"/"+string(mode), func(t *testing.T) {
				t.Parallel()
				testInterruptResume(t, w, mode, seed)
			})
		}
	}
}

// dumpFailedSnapshot preserves the kill-point snapshot for post-mortem
// when the oracle fails and DSASIM_RESUME_ARTIFACTS names a directory
// (CI uploads it as a build artifact).
func dumpFailedSnapshot(t *testing.T, w *workloads.Workload, mode Mode, snap []byte) {
	t.Cleanup(func() {
		dir := os.Getenv("DSASIM_RESUME_ARTIFACTS")
		if !t.Failed() || dir == "" || snap == nil {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		path := filepath.Join(dir, w.Name+"_"+string(mode)+".dsnp")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Logf("artifact write: %v", err)
			return
		}
		t.Logf("kill-point snapshot preserved at %s", path)
	})
}

func testInterruptResume(t *testing.T, w *workloads.Workload, mode Mode, seed int64) {
	// Reference: the uninterrupted run.
	ref, err := buildSim(w, mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.run(); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want, err := ref.state(w)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Pick the kill step inside the run, pseudo-randomly but
	// reproducibly per (seed, workload, mode).
	rng := rand.New(rand.NewSource(seed ^ int64(cpu.ProgramFingerprint(ref.m.Prog))))
	killStep := 1 + uint64(rng.Int63n(int64(want.steps)))

	// Interrupted run: snapshot at the first hook firing at or past the
	// kill step, then abort. DSA modes postpone the hook to the next
	// engine-quiescent point, so the actual kill step may trail the
	// requested one; both are legitimate interruption points.
	victim, err := buildSim(w, mode)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	victim.setHook(func() error {
		if victim.m.Steps < killStep {
			return nil
		}
		var sw snapshot.Writer
		if err := victim.save(&sw); err != nil {
			return fmt.Errorf("save at step %d: %w", victim.m.Steps, err)
		}
		snap = sw.Bytes()
		return errKill
	})
	err = victim.run()
	if err == nil {
		// The run halted before the hook could fire past killStep (a
		// kill point in the final stretch with no further quiescent
		// hook firing). The interruption never happened; the oracle's
		// equality claim is vacuous here, but the completed victim must
		// still match the reference.
		got, serr := victim.state(w)
		if serr != nil {
			t.Fatalf("seed=%d killStep=%d: uninterrupted victim: %v", seed, killStep, serr)
		}
		compareRunState(t, seed, killStep, want, got)
		return
	}
	if !errors.Is(err, errKill) {
		t.Fatalf("seed=%d killStep=%d: interrupted run died of the wrong cause: %v", seed, killStep, err)
	}
	if snap == nil {
		t.Fatalf("seed=%d killStep=%d: killed without a snapshot", seed, killStep)
	}
	dumpFailedSnapshot(t, w, mode, snap)

	// Resume a freshly built simulation from the snapshot bytes and run
	// it to completion.
	resumed, err := buildSim(w, mode)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.Parse(snap)
	if err != nil {
		t.Fatalf("seed=%d killStep=%d: parse snapshot: %v", seed, killStep, err)
	}
	if err := resumed.restore(rd); err != nil {
		t.Fatalf("seed=%d killStep=%d: restore: %v", seed, killStep, err)
	}
	if err := resumed.run(); err != nil {
		t.Fatalf("seed=%d killStep=%d: resumed run: %v", seed, killStep, err)
	}
	got, err := resumed.state(w)
	if err != nil {
		t.Fatalf("seed=%d killStep=%d: resumed run: %v", seed, killStep, err)
	}
	compareRunState(t, seed, killStep, want, got)
}

func compareRunState(t *testing.T, seed int64, killStep uint64, want, got *runState) {
	t.Helper()
	if got.memSum != want.memSum {
		t.Errorf("seed=%d killStep=%d: memory digest %016x, want %016x", seed, killStep, got.memSum, want.memSum)
	}
	if got.ticks != want.ticks {
		t.Errorf("seed=%d killStep=%d: ticks %d, want %d", seed, killStep, got.ticks, want.ticks)
	}
	if got.steps != want.steps {
		t.Errorf("seed=%d killStep=%d: steps %d, want %d", seed, killStep, got.steps, want.steps)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("seed=%d killStep=%d: DSA stats diverged:\n got: %+v\nwant: %+v", seed, killStep, got.stats, want.stats)
	}
}
