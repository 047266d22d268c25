package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// snapshotTestJob is the one job these tests run: a workload long
// enough to checkpoint mid-run, under the extended DSA.
func snapshotTestJob(t *testing.T) Job {
	t.Helper()
	w, err := workloads.ByName("mm_32x32")
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Name:     w.Name + "/extended",
		Workload: w,
		CPU:      cpu.DefaultConfig(),
		DSA:      dsa.DefaultConfig(),
	}
}

// referenceResult runs the job without any checkpointing.
func referenceResult(t *testing.T, job Job) Result {
	t.Helper()
	rep := Run(context.Background(), []Job{job}, Options{Workers: 1})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("reference run: %+v", r)
	}
	return r
}

var errStopForSnapshot = errors.New("snapshot harness: stop")

// writeMidRunCheckpoint simulates a killed batch: it runs the job's
// system up to roughly the middle and leaves a checkpoint file behind,
// exactly where the runner would look for it.
func writeMidRunCheckpoint(t *testing.T, job Job, dir string) (path string, atStep uint64) {
	t.Helper()
	sys, err := dsa.NewSystem(job.Workload.Scalar(), job.CPU, job.DSA)
	if err != nil {
		t.Fatal(err)
	}
	job.Workload.Setup(sys.M)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	killStep := sys.M.Steps / 2

	sys, err = dsa.NewSystem(job.Workload.Scalar(), job.CPU, job.DSA)
	if err != nil {
		t.Fatal(err)
	}
	job.Workload.Setup(sys.M)
	path = filepath.Join(dir, snapshotFileName(job.Name))
	sys.SetRunHook(func() error {
		if sys.M.Steps < killStep {
			return nil
		}
		var w snapshot.Writer
		if err := sys.SaveState(&w); err != nil {
			return err
		}
		if err := w.WriteFile(path); err != nil {
			return err
		}
		atStep = sys.M.Steps
		return errStopForSnapshot
	})
	if err := sys.Run(); !errors.Is(err, errStopForSnapshot) {
		t.Fatalf("harness run ended with %v, want snapshot stop", err)
	}
	return path, atStep
}

// TestRunnerResumeFromCheckpoint: a batch with -resume picks up a
// previous run's checkpoint mid-stream and still produces the exact
// result of an uninterrupted run, attributed via ResumedFromStep; the
// snapshot is deleted once the job succeeds.
func TestRunnerResumeFromCheckpoint(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()
	path, atStep := writeMidRunCheckpoint(t, job, dir)

	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
		Resume:      true,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("resumed run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != atStep {
		t.Errorf("ResumedFromStep = %d, want %d", r.ResumedFromStep, atStep)
	}
	if r.ResumeNote != "" {
		t.Errorf("ResumeNote = %q, want clean resume", r.ResumeNote)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
		t.Errorf("resumed result diverged: mem %016x ticks %d, want mem %016x ticks %d",
			r.MemSum, r.Ticks, ref.MemSum, ref.Ticks)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("snapshot not cleaned up after success: stat err %v", err)
	}
}

// TestRunnerResumeWithoutFlag: without -resume a pre-existing
// checkpoint must be ignored — the job runs from zero.
func TestRunnerResumeWithoutFlag(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()
	writeMidRunCheckpoint(t, job, dir)

	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("ResumedFromStep = %d, want 0 (resume not requested)", r.ResumedFromStep)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
		t.Errorf("run diverged from reference: mem %016x ticks %d, want mem %016x ticks %d",
			r.MemSum, r.Ticks, ref.MemSum, ref.Ticks)
	}
}

// TestRunnerSnapshotFaultClasses sweeps every snapshot-file fault
// class (truncation, bit flip, version skew): each must be *detected*
// at restore — attributed restart-from-zero with the bad file deleted
// — and never resumed into divergent execution.
func TestRunnerSnapshotFaultClasses(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)

	wantCause := map[dsa.SnapshotFault]string{
		dsa.SnapTruncate:    "snapshot-corrupt",
		dsa.SnapBitFlip:     "snapshot-corrupt",
		dsa.SnapVersionSkew: "snapshot-version-skew",
	}
	for _, fault := range dsa.SnapshotFaults {
		fault := fault
		t.Run(fault.String(), func(t *testing.T) {
			dir := t.TempDir()
			path, _ := writeMidRunCheckpoint(t, job, dir)
			if err := dsa.InjectSnapshotFault(path, fault); err != nil {
				t.Fatal(err)
			}
			rep := Run(context.Background(), []Job{job}, Options{
				Workers:     1,
				SnapshotDir: dir,
				Resume:      true,
			})
			r := rep.Results[0]
			if r.Status != StatusOK {
				t.Fatalf("run after %v: %+v (err %v)", fault, r, r.Err)
			}
			if r.ResumedFromStep != 0 {
				t.Errorf("resumed from step %d off a %v snapshot — fault not detected", r.ResumedFromStep, fault)
			}
			if !strings.Contains(r.ResumeNote, wantCause[fault]) {
				t.Errorf("ResumeNote = %q, want cause %q", r.ResumeNote, wantCause[fault])
			}
			// Detected, not divergent: the restart must reproduce the
			// uninterrupted result exactly.
			if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
				t.Errorf("restart after %v diverged: mem %016x ticks %d, want mem %016x ticks %d",
					fault, r.MemSum, r.Ticks, ref.MemSum, ref.Ticks)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("bad snapshot left on disk: stat err %v", err)
			}
		})
	}
}

// TestRunnerMismatchedSnapshot: a checkpoint from a *different* job
// (different program) must be rejected by the fingerprint gate and
// restart from zero, not resume alien state.
func TestRunnerMismatchedSnapshot(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)

	other, err := workloads.ByName("bit_count")
	if err != nil {
		t.Fatal(err)
	}
	otherJob := Job{Name: other.Name + "/extended", Workload: other, CPU: job.CPU, DSA: job.DSA}

	dir := t.TempDir()
	otherPath, _ := writeMidRunCheckpoint(t, otherJob, dir)
	// Park the alien snapshot where job's resume will look.
	if err := os.Rename(otherPath, filepath.Join(dir, snapshotFileName(job.Name))); err != nil {
		t.Fatal(err)
	}

	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
		Resume:      true,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("resumed from step %d off a mismatched snapshot", r.ResumedFromStep)
	}
	if !strings.Contains(r.ResumeNote, "snapshot-mismatch") {
		t.Errorf("ResumeNote = %q, want snapshot-mismatch", r.ResumeNote)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
		t.Errorf("restart diverged from reference")
	}
}

// TestRunnerOldCheckpointRestartsFromZero: a checkpoint written before
// the adaptive mode was removed (its DSA config encoding still carries
// the policy fields) fails restore as snapshot-mismatch; the job
// restarts from zero and ends with its golden digest and ticks (the
// mm_32x32 neon-dsa-extended row of
// internal/experiments/testdata/golden_digests.json).
func TestRunnerOldCheckpointRestartsFromZero(t *testing.T) {
	job := snapshotTestJob(t)
	old, err := os.ReadFile("../dsa/testdata/checkpoints/old-extended-mm_32x32.dsnp")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotFileName(job.Name))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
		Resume:      true,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("resumed from step %d off an old-layout checkpoint", r.ResumedFromStep)
	}
	if !strings.Contains(r.ResumeNote, "restart-from-zero: snapshot-mismatch") {
		t.Errorf("ResumeNote = %q, want restart-from-zero: snapshot-mismatch", r.ResumeNote)
	}
	if r.MemSum != 0x60f051dea5240abf || r.Ticks != 1298915 {
		t.Errorf("restart ended with mem %016x ticks %d, want the golden 60f051dea5240abf / 1298915", r.MemSum, r.Ticks)
	}
}

// TestRunnerPeriodicCheckpointing: with a small step interval the
// runner must leave a valid checkpoint behind when an attempt dies,
// and the retry must resume from it.
func TestRunnerPeriodicCheckpointing(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()

	// The attempt dies on a silently corrupting fault surfaced as a
	// hard oracle error (no in-run fallback), leaving its periodic
	// checkpoint behind.
	faulted := job
	faulted.DSA.Fault = dsa.FaultConfig{Kind: dsa.FaultCorruptCache, EveryN: 500}
	faulted.DSA.Verify = dsa.VerifyConfig{Enabled: true, Fallback: false}

	rep := Run(context.Background(), []Job{faulted}, Options{
		Workers:       1,
		Retries:       0,
		NoDegrade:     true,
		SnapshotDir:   dir,
		SnapshotEvery: 1000,
	})
	r := rep.Results[0]
	if r.Status != StatusFailed {
		t.Fatalf("faulted run: %+v, want failed (so the checkpoint survives)", r)
	}
	path := filepath.Join(dir, snapshotFileName(job.Name))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("failed job left no checkpoint: %v", err)
	}
	if _, err := snapshot.ReadFile(path); err != nil {
		t.Fatalf("left-behind checkpoint does not parse: %v", err)
	}

	// A healthy batch with -resume picks the checkpoint up. The clean
	// config differs from the faulted one, so this also exercises the
	// config gate: restore must refuse and restart from zero.
	rep = Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
		Resume:      true,
	})
	r = rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("resumed run: %+v (err %v)", r, r.Err)
	}
	if !strings.Contains(r.ResumeNote, "snapshot-mismatch") {
		t.Errorf("ResumeNote = %q, want snapshot-mismatch (fault config differs)", r.ResumeNote)
	}
	if r.MemSum != ref.MemSum {
		t.Errorf("result diverged from reference")
	}
}
