package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonSmoke is the end-to-end service check: build the real
// binary, boot it on an ephemeral port, run a submit → poll → metrics
// round trip over HTTP, and shut it down with SIGTERM. It exercises
// the same path as the CI service-smoke job.
func TestDaemonSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dsasimd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data", filepath.Join(dir, "data"),
		"-progress-every", "100000")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	// The daemon logs its resolved listen address; scrape it, then keep
	// the stderr pipe drained so the child never blocks on a full pipe.
	sc := bufio.NewScanner(stderr)
	var addr string
	var logTail []string
	logDone := make(chan struct{})
	for sc.Scan() {
		line := sc.Text()
		logTail = append(logTail, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address; log:\n%s", strings.Join(logTail, "\n"))
	}
	go func() {
		defer close(logDone)
		for sc.Scan() {
			logTail = append(logTail, sc.Text())
		}
	}()
	base := "http://" + addr

	// Submit a job and poll it to completion.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"workload":"mm_32x32","config":"extended"}`)))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: code = %d", resp.StatusCode)
	}
	var view struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Result *struct {
			Status    string `json:"status"`
			MemDigest string `json:"mem_digest"`
			Takeovers uint64 `json:"takeovers"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	if view.ID == "" {
		t.Fatalf("submit returned no job id")
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatalf("decode job: %v", err)
		}
		r.Body.Close()
		if view.Status == "ok" || view.Status == "degraded" || view.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", view.ID, view.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Status != "ok" || view.Result == nil || view.Result.MemDigest == "" {
		t.Fatalf("job finished badly: %+v", view)
	}
	if view.Result.Takeovers == 0 {
		t.Errorf("extended run reports no takeovers")
	}

	// Metrics round trip.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var mbuf bytes.Buffer
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"dsasimd_jobs_submitted_total 1",
		`dsasimd_jobs_completed_total{status="ok"} 1`,
		"dsasimd_queue_depth 0",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Graceful SIGTERM shutdown.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// cmd.Wait closes the stderr pipe: let the log reader reach EOF
	// first, or the last lines can be lost.
	waitErr := make(chan error, 1)
	go func() {
		<-logDone
		waitErr <- cmd.Wait()
	}()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(strings.Join(logTail, "\n"), "dsasimd: bye") {
		t.Errorf("daemon log missing clean-shutdown line:\n%s", strings.Join(logTail, "\n"))
	}

	// The drain persisted the job table.
	if _, err := os.Stat(filepath.Join(dir, "data", "jobs.dsnp")); err != nil {
		t.Errorf("no persisted job table: %v", err)
	}
}
