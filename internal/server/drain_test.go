package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// TestServiceDrainRestart is the durability e2e: a drain mid-run
// checkpoints the in-flight job and persists the job table; a second
// Server on the same state resumes the interrupted job from its
// checkpoint and finishes with a result bit-identical to an
// uninterrupted run. Completed jobs survive the restart verbatim.
func TestServiceDrainRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:     2,
		SnapshotDir: filepath.Join(dir, "snapshots"),
		StateFile:   filepath.Join(dir, "jobs.dsnp"),
	}
	cfg.Runner.ProgressEvery = 50_000
	// Loose enough that periodic 16 MiB image saves don't dominate the
	// test; the drain forces its own checkpoint regardless of cadence.
	cfg.Runner.SnapshotEvery = 10_000_000

	longSpec := JobSpec{Name: "long", Source: longSource(8_000_000), Config: "scalar"}
	mmSpec := JobSpec{Workload: "mm_32x32", Config: "extended"}

	s1, ts1 := newTestServer(t, cfg)
	lv, _ := submit(t, ts1, longSpec, http.StatusAccepted)
	mv, _ := submit(t, ts1, mmSpec, http.StatusAccepted)

	// The matrix job finishes quickly; it rides along to prove terminal
	// results survive the restart.
	mmBefore := waitTerminal(t, ts1, mv.ID, 60*time.Second)
	if mmBefore.Result.Status != "ok" {
		t.Fatalf("mm job: %+v", mmBefore.Result)
	}

	// Wait until the long job is demonstrably mid-run (live progress on
	// the polling surface), then pull the plug.
	waitFor(t, ts1, lv.ID, 30*time.Second, "mid-run progress", func(v JobView) bool {
		return v.Status == StatusRunning && v.Progress != nil && v.Progress.Steps >= 100_000
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	after := getJob(t, ts1, lv.ID)
	if after.Status != StatusInterrupted {
		t.Fatalf("long job after drain: status = %s, want interrupted", after.Status)
	}
	ckpt := filepath.Join(cfg.SnapshotDir, lv.ID+".dsnp")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain left no checkpoint: %v", err)
	}
	if m := s1.Metrics(); !strings.Contains(m, "dsasimd_jobs_interrupted_total 1") {
		t.Errorf("interrupted counter not incremented")
	}
	ts1.Close()

	// Restart on the same state directory: the interrupted job is
	// re-queued and resumes from its checkpoint.
	s2, ts2 := newTestServer(t, cfg)
	got := waitTerminal(t, ts2, lv.ID, 120*time.Second)
	if got.Result.Status != "ok" {
		t.Fatalf("resumed job: %+v", got.Result)
	}
	if got.Result.ResumedFromStep == 0 {
		t.Errorf("resumed job reports resumed_from_step = 0")
	}

	// Bit-identical to an uninterrupted run of the same spec.
	want := referenceResult(t, longSpec)
	if got.Result.MemDigest != want.MemDigest {
		t.Errorf("resumed digest = %s, want %s", got.Result.MemDigest, want.MemDigest)
	}
	if got.Result.Ticks != want.Ticks || got.Result.Steps != want.Steps {
		t.Errorf("resumed ticks/steps = %d/%d, want %d/%d",
			got.Result.Ticks, got.Result.Steps, want.Ticks, want.Steps)
	}

	// The completed matrix job survived the restart with its result.
	mmAfter := getJob(t, ts2, mv.ID)
	if !Terminal(mmAfter.Status) || mmAfter.Result == nil ||
		mmAfter.Result.MemDigest != mmBefore.Result.MemDigest {
		t.Errorf("mm job after restart: %+v", mmAfter)
	}

	if m := s2.Metrics(); !strings.Contains(m, "dsasimd_jobs_resumed_total 1") {
		t.Errorf("resumed counter not incremented:\n%s", m)
	}
}

// TestServiceRestoresRemovedConfig: a state file written before the
// adaptive mode was removed may hold a queued job with
// "config":"adaptive". The restarted daemon restores it, fails it
// with cause bad-spec, and keeps serving other jobs.
func TestServiceRestoresRemovedConfig(t *testing.T) {
	state := filepath.Join(t.TempDir(), "jobs.dsnp")
	table := json.RawMessage(`{"next_id":2,"jobs":[{"id":"j000001",` +
		`"spec":{"workload":"mm_32x32","config":"adaptive"},"status":"queued",` +
		`"queued":"2026-10-17T12:16:57.722687735Z"}]}`)
	if err := SaveState(state, snapshot.Writer{}, stateSection, table); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, StateFile: state})
	got := waitTerminal(t, ts, "j000001", 30*time.Second)
	if got.Status != "failed" || got.Result.Cause != "bad-spec" {
		t.Errorf("adaptive job: status %s cause %q, want failed / bad-spec", got.Status, got.Result.Cause)
	}

	v, _ := submit(t, ts, JobSpec{Workload: "mm_32x32"}, http.StatusAccepted)
	if v.ID == "j000001" {
		t.Fatalf("new job reused the restored job's ID")
	}
	if r := waitTerminal(t, ts, v.ID, 30*time.Second); r.Status != "ok" {
		t.Errorf("job after the failed one: %+v", r.Result)
	}
}
