package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// longSource builds a scalar loop retiring ~7n instructions whose
// memory image depends on the whole execution history: r5 mixes the
// induction variable with the (+i)^c map — a bijection per step with
// no fixed point on its trajectory (eor'ing the bound, not i itself,
// so 0 is not absorbing) — and streams it through a 4 KiB window.
// Digest equality between two runs therefore means the runs agree on
// the accumulator's entire orbit, not just the final counters.
func longSource(n int) string {
	return fmt.Sprintf(`
        mov   r0, #0
        mov   r1, #%d
outer:  mov   r2, #65536
        mov   r4, #0
inner:  add   r0, r0, #1
        add   r5, r5, r0
        eor   r5, r5, r1
        str   r5, [r2], #4
        add   r4, r4, #1
        cmp   r4, #1024
        blt   inner
        cmp   r0, r1
        blt   outer
        halt
`, n)
}

// newTestServer builds a service plus an HTTP front end, both torn
// down at test end (Drain is idempotent, so tests may drain earlier).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// submit posts a spec and decodes the response, asserting the status
// code. The returned view is nil for error answers.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec, wantCode int) (*JobView, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/jobs: code = %d, want %d (body %s)", resp.StatusCode, wantCode, msg.String())
	}
	if wantCode != http.StatusAccepted {
		return nil, resp
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if view.ID == "" || view.Status == "" {
		t.Fatalf("submit response missing id/status: %+v", view)
	}
	return &view, resp
}

// getJob polls GET /v1/jobs/{id} once.
func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: code = %d", id, resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode job %s: %v", id, err)
	}
	return view
}

// waitFor polls the job until cond holds, failing at the deadline.
func waitFor(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, what string, cond func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		if cond(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timed out waiting for %s (status %s)", id, what, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobView {
	t.Helper()
	v := waitFor(t, ts, id, timeout, "terminal status", func(v JobView) bool { return Terminal(v.Status) })
	if v.Result == nil {
		t.Fatalf("job %s: terminal (%s) but no result", id, v.Status)
	}
	return v
}

// referenceResult runs the spec directly on the supervisor — the same
// path `dsasim -batch -json` takes — for parity comparisons.
func referenceResult(t *testing.T, spec JobSpec) ResultJSON {
	t.Helper()
	job, err := spec.RunnerJob("ref")
	if err != nil {
		t.Fatalf("RunnerJob: %v", err)
	}
	rep := runner.Run(context.Background(), []runner.Job{job}, runner.Options{Workers: 1})
	if len(rep.Results) != 1 {
		t.Fatalf("reference run: %d results", len(rep.Results))
	}
	return ResultFromRunner(rep.Results[0])
}

// TestServiceParity: a job submitted over HTTP must report the same
// simulation outcome — memory digest, tick count, step count, DSA
// takeover and fallback attribution — as the same spec run directly on
// the runner (the CLI path).
func TestServiceParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	specs := []JobSpec{
		{Workload: "mm_32x32", Config: "extended"},
		{Workload: "mm_32x32", Config: "scalar"},
		{Name: "loop", Source: longSource(100_000), Config: "extended", Verify: true},
	}
	views := make([]*JobView, len(specs))
	for i, spec := range specs {
		views[i], _ = submit(t, ts, spec, http.StatusAccepted)
	}
	for i, spec := range specs {
		got := waitTerminal(t, ts, views[i].ID, 60*time.Second)
		want := referenceResult(t, spec)
		r := got.Result
		if r.Status != want.Status {
			t.Fatalf("%s: status = %s, want %s (err %s)", views[i].ID, r.Status, want.Status, r.Error)
		}
		if r.MemDigest != want.MemDigest {
			t.Errorf("%s: mem_digest = %s, want %s", views[i].ID, r.MemDigest, want.MemDigest)
		}
		if r.Ticks != want.Ticks {
			t.Errorf("%s: ticks = %d, want %d", views[i].ID, r.Ticks, want.Ticks)
		}
		if r.Steps != want.Steps {
			t.Errorf("%s: steps = %d, want %d", views[i].ID, r.Steps, want.Steps)
		}
		if r.Takeovers != want.Takeovers || r.Fallbacks != want.Fallbacks {
			t.Errorf("%s: takeovers/fallbacks = %d/%d, want %d/%d",
				views[i].ID, r.Takeovers, r.Fallbacks, want.Takeovers, want.Fallbacks)
		}
		if got.Queued == "" || got.Started == "" || got.Finished == "" {
			t.Errorf("%s: missing lifecycle timestamps: %+v", views[i].ID, got)
		}
	}

	// The extended and scalar runs of the same workload must agree on
	// the output image — the service end of the differential oracle.
	ext := getJob(t, ts, views[0].ID).Result
	sca := getJob(t, ts, views[1].ID).Result
	if ext.MemDigest != sca.MemDigest {
		t.Errorf("extended digest %s != scalar digest %s", ext.MemDigest, sca.MemDigest)
	}
	if ext.Takeovers == 0 {
		t.Errorf("extended run reports no takeovers")
	}
}

// TestServiceRejectsBadSpecs: malformed submissions answer 400 at
// admission; unknown jobs answer 404.
func TestServiceRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	bad := []JobSpec{
		{},                                         // neither workload nor source
		{Workload: "mm_32x32", Source: "x"},        // both
		{Workload: "no_such_workload"},             // unknown workload
		{Source: "bogus r0, r1\n halt"},            // syntax error
		{Workload: "mm_32x32", Config: "avx"},      // unknown config
		{Workload: "mm_32x32", Config: "adaptive"}, // the removed adaptive mode
		{Workload: "mm_32x32", TimeoutMS: -5},      // negative timeout
	}
	for i, spec := range bad {
		if _, resp := submit(t, ts, spec, http.StatusBadRequest); resp == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}

	// Unparseable body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: code = %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: code = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServiceBackpressure: with one worker and one queue slot, a third
// concurrent job must be refused with 429 + Retry-After, and a drained
// service must refuse everything with 503.
func TestServiceBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 7 * time.Second,
		Runner:     runner.Options{ProgressEvery: 50_000},
	})

	long := JobSpec{Name: "hog", Source: longSource(20_000_000), Config: "scalar"}
	v1, _ := submit(t, ts, long, http.StatusAccepted)
	// Wait until the worker owns job 1, so the queue slot is free and
	// the admission outcome of the next two submissions is determined.
	waitFor(t, ts, v1.ID, 10*time.Second, "running", func(v JobView) bool { return v.Status == StatusRunning })

	v2, _ := submit(t, ts, long, http.StatusAccepted)
	if got := getJob(t, ts, v2.ID); got.Status != StatusQueued {
		t.Fatalf("job 2 status = %s, want queued", got.Status)
	}

	_, resp := submit(t, ts, long, http.StatusTooManyRequests)
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Errorf("Retry-After = %q, want an integer", resp.Header.Get("Retry-After"))
	}
	// The hint jitters upward from the configured base (7s) by up to
	// 1+base/4 seconds so rejected clients don't retry in lockstep.
	if ra < 7 || ra > 7+1+7/4 {
		t.Errorf("Retry-After = %d, want in [7, %d]", ra, 7+1+7/4)
	}

	// A full queue is a readiness failure, not a liveness one.
	checkProbe(t, ts, "/readyz", http.StatusServiceUnavailable, "reason", "queue full")
	checkProbe(t, ts, "/healthz", http.StatusOK, "status", "ok")

	// Queue state is visible on the metrics surface.
	m := s.Metrics()
	for _, want := range []string{
		"dsasimd_queue_depth 1",
		"dsasimd_queue_capacity 1",
		"dsasimd_jobs_inflight 1",
		"dsasimd_jobs_rejected_total 1",
		"dsasimd_jobs_submitted_total 2",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain: the running job is interrupted, and submissions now get 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := getJob(t, ts, v1.ID); got.Status != StatusInterrupted {
		t.Errorf("job 1 after drain: status = %s, want interrupted", got.Status)
	}
	submit(t, ts, long, http.StatusServiceUnavailable)

	// Liveness stays 200 through the drain (the process is up); only
	// readiness flips to 503.
	checkProbe(t, ts, "/healthz", http.StatusOK, "status", "draining")
	checkProbe(t, ts, "/readyz", http.StatusServiceUnavailable, "reason", "draining")
}

// checkProbe asserts a health/readiness endpoint's status code and one
// field of its JSON body.
func checkProbe(t *testing.T, ts *httptest.Server, path string, wantCode int, field, want string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Errorf("GET %s: code = %d, want %d", path, resp.StatusCode, wantCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if body[field] != want {
		t.Errorf("%s %s = %q, want %q", path, field, body[field], want)
	}
}

// TestServiceEvents: the SSE stream carries live progress samples and
// ends with the terminal result; a late subscriber still receives the
// terminal event.
func TestServiceEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Runner:  runner.Options{ProgressEvery: 20_000},
	})

	view, _ := submit(t, ts, JobSpec{Name: "sse", Source: longSource(3_000_000), Config: "scalar"}, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	progress, done := drainSSE(t, resp.Body)
	if progress == 0 {
		t.Errorf("no progress events on the stream")
	}
	if done == nil {
		t.Fatalf("stream ended without a done event")
	}
	if done.Result == nil || done.Result.Status != string(runner.StatusOK) {
		t.Fatalf("done event: %+v", done)
	}

	// The streamed terminal result matches the polled one.
	polled := waitTerminal(t, ts, view.ID, 10*time.Second)
	if done.Result.MemDigest != polled.Result.MemDigest || done.Result.Ticks != polled.Result.Ticks {
		t.Errorf("streamed result %s/%d != polled %s/%d",
			done.Result.MemDigest, done.Result.Ticks, polled.Result.MemDigest, polled.Result.Ticks)
	}

	// A subscriber attaching after completion gets the replayed "done"
	// immediately.
	req2, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("GET events (late): %v", err)
	}
	defer resp2.Body.Close()
	_, late := drainSSE(t, resp2.Body)
	if late == nil || late.Result == nil || late.Result.MemDigest != polled.Result.MemDigest {
		t.Errorf("late subscriber: done = %+v", late)
	}
}

// drainSSE reads an event stream to its terminal event, returning the
// number of progress events and the done event.
func drainSSE(t *testing.T, body io.Reader) (progress int, done *Event) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		switch ev.Type {
		case "progress":
			if ev.Progress == nil || ev.Progress.Steps == 0 {
				t.Errorf("progress event without sample: %+v", ev)
			}
			progress++
		case "done":
			return progress, &ev
		}
	}
	return progress, nil
}

// TestServiceIdempotentSubmit: the standalone daemon honors
// Idempotency-Key like the cluster coordinator — same key replays the
// original job, distinct keys create distinct jobs.
func TestServiceIdempotentSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Workload: "mm_32x32"}

	post := func(key string) (JobView, bool) {
		t.Helper()
		body, _ := json.Marshal(spec)
		req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs (key %q): code %d", key, resp.StatusCode)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		return view, resp.Header.Get("Idempotency-Replayed") == "true"
	}

	first, replayed := post("svc-key")
	if replayed {
		t.Fatal("first submission marked as a replay")
	}
	waitTerminal(t, ts, first.ID, 30*time.Second)
	// A retry after completion still replays — and carries the result.
	again, replayed := post("svc-key")
	if again.ID != first.ID || !replayed {
		t.Fatalf("replay: id %s replayed %v, want %s true", again.ID, replayed, first.ID)
	}
	if again.Result == nil {
		t.Error("replayed response missing the completed result")
	}
	if other, _ := post("svc-key-2"); other.ID == first.ID {
		t.Fatal("distinct key replayed the first job")
	}
}

// TestServiceMetricsNames pins the full metric surface: a CI name
// regression here breaks dashboards silently, so every exported family
// is asserted.
func TestServiceMetricsNames(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	view, _ := submit(t, ts, JobSpec{Workload: "mm_32x32"}, http.StatusAccepted)
	waitTerminal(t, ts, view.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	m := buf.String()

	for _, name := range []string{
		"dsasimd_queue_depth",
		"dsasimd_queue_capacity",
		"dsasimd_jobs_inflight",
		"dsasimd_mem_inflight_bytes",
		"dsasimd_mem_budget_bytes",
		"dsasimd_jobs_submitted_total",
		"dsasimd_jobs_rejected_total",
		"dsasimd_jobs_deduped_total",
		"dsasimd_jobs_completed_total{status=\"ok\"}",
		"dsasimd_jobs_completed_total{status=\"degraded\"}",
		"dsasimd_jobs_completed_total{status=\"failed\"}",
		"dsasimd_jobs_interrupted_total",
		"dsasimd_jobs_resumed_total",
		"dsasimd_job_retries_total",
		"dsasimd_energy_nanojoules_total{component=\"front_end\"}",
		"dsasimd_energy_nanojoules_total{component=\"scalar\"}",
		"dsasimd_energy_nanojoules_total{component=\"caches\"}",
		"dsasimd_energy_nanojoules_total{component=\"neon\"}",
		"dsasimd_energy_nanojoules_total{component=\"dsa\"}",
		"dsasimd_job_duration_seconds_bucket",
		"dsasimd_job_duration_seconds_sum",
		"dsasimd_job_duration_seconds_count",
		"dsasimd_job_steps_per_second_bucket",
		"dsasimd_job_steps_per_second_count",
	} {
		if !strings.Contains(m, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
	if !strings.Contains(m, "dsasimd_jobs_completed_total{status=\"ok\"} 1") {
		t.Errorf("completed counter not incremented:\n%s", m)
	}
	if !strings.Contains(m, "dsasimd_job_duration_seconds_count 1") {
		t.Errorf("duration histogram not observed")
	}

	// The library surface agrees with the HTTP one.
	if s.Metrics() != m {
		// Gauges may legitimately move between scrapes; compare names only.
		for _, line := range strings.Split(m, "\n") {
			if strings.HasPrefix(line, "# HELP") && !strings.Contains(s.Metrics(), strings.Fields(line)[2]) {
				t.Errorf("Server.Metrics missing family %s", strings.Fields(line)[2])
			}
		}
	}
}
