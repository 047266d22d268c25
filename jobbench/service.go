package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// leaseTTL is the cluster workload's fixed lease TTL. Workers heartbeat
// at a third of it and learn of new assignments from heartbeats, so it
// sets the dispatch wait; the report records it.
const leaseTTL = 300 * time.Millisecond

// serviceExtras are the operations other than jobs in one cycle of the
// service mix: one of each kind, at seed-chosen positions, so every
// phase exercises each. No operator traffic data is in the repository
// to base their shares on; one per cycle of the built-in jobs is a
// placeholder, kept as small as a fixed share that exercises each kind
// in every phase allows.
var serviceExtras = []op{{kind: opReplay}, {kind: opList}, {kind: opMetrics}}

// httpSys drives the cluster coordinator's HTTP front end with the
// operator's client traffic.
type httpSys struct {
	base     string
	hc       *http.Client
	cycle    *cycle
	gate     *gate
	clients  [callers]*client
	teardown func() error

	mu      sync.Mutex
	refused int
	sent    []submitted          // accepted submissions, one per job in the table
	timings map[string][]float64 // traced: "notify", "queue" in ms
	results map[string]server.ResultJSON
}

// client is one closed-loop caller's state. Each caller touches only
// its own client.
type client struct {
	rng *rand.Rand
	n   int
	// malformedAt is the operation number at which this client sends
	// the run's one malformed spec (0: never).
	malformedAt int
}

type submitted struct {
	key, id string
	spec    []byte
}

func newHTTPSys(in *inputs, base string) *httpSys {
	s := &httpSys{
		base:    base,
		hc:      &http.Client{Transport: &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers}},
		cycle:   newCycle(append(append([]op(nil), in.suite...), serviceExtras...), in.seed),
		gate:    in.gate,
		timings: map[string][]float64{},
		results: map[string]server.ResultJSON{},
	}
	for i := range s.clients {
		s.clients[i] = &client{rng: rand.New(rand.NewSource(in.seed*1_000_003 + int64(i)))}
	}
	s.clients[0].malformedAt = 2 + s.clients[0].rng.Intn(20)
	return s
}

// setupCluster starts a coordinator behind an httptest listener and
// one in-process worker joined over HTTP; the system is ready when
// /readyz answers 200, which needs a live worker.
func setupCluster(in *inputs, dir string) (system, error) {
	coord, err := cluster.NewCoordinator(cluster.Config{
		LeaseTTL:  leaseTTL,
		StateFile: filepath.Join(dir, "cluster.dsnp"),
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(coord.Handler())
	wk := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: ts.URL,
		Capacity:    workers,
		SnapshotDir: filepath.Join(dir, "snapshots"),
	})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		wk.Run()
	}()
	s := newHTTPSys(in, ts.URL)
	s.teardown = func() error {
		wk.Close()
		<-stopped
		coord.Close()
		ts.Close()
		return nil
	}
	if err := s.awaitReady(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// awaitReady polls /readyz until it answers 200.
func (s *httpSys) awaitReady() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for {
		code, _, _, err := s.call(ctx, http.MethodGet, "/readyz", nil, "")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("not ready after %s (last: HTTP %d, %v)", opTimeout, code, err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (s *httpSys) jobs() *cycle { return s.cycle }

func (s *httpSys) close() error {
	err := s.teardown()
	s.hc.CloseIdleConnections()
	return err
}

// call makes one request and reads the whole answer.
func (s *httpSys) call(ctx context.Context, method, path string, body []byte, idemKey string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// tableSize is how many jobs the coordinator's job table holds: every
// accepted submission. The coordinator saves the whole table on every
// submit and finish, so that cost grows with it.
func (s *httpSys) tableSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sent)
}

// do runs the caller's next operation of the mix: mostly jobs, with
// replays, list calls and metrics scrapes, and one malformed spec per
// run.
func (s *httpSys) do(ctx context.Context, caller int, tr *tracer) sample {
	c := s.clients[caller]
	c.n++
	if c.n == c.malformedAt {
		return s.malformed(ctx)
	}
	o, ok := s.cycle.next()
	if !ok {
		return sample{stopped: true}
	}
	switch o.kind {
	case opReplay:
		return s.replay(ctx, c, tr)
	case opList:
		s.mu.Lock()
		accepted := len(s.sent)
		s.mu.Unlock()
		return s.read(ctx, tr, "list", "/v1/jobs", func(b []byte) error {
			var l struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if err := json.Unmarshal(b, &l); err != nil {
				return err
			}
			if len(l.Jobs) < accepted {
				return fmt.Errorf("%d jobs listed, but %d were accepted before the call", len(l.Jobs), accepted)
			}
			return nil
		})
	case opMetrics:
		return s.read(ctx, tr, "metrics", "/metrics", func(b []byte) error {
			if !bytes.Contains(b, []byte("dsasimd_")) {
				return errors.New("no dsasimd_ metric families")
			}
			return nil
		})
	}
	return s.job(ctx, o, c, caller, tr)
}

// job submits a job, waits on its event stream for the done event,
// fetches the job, and checks its result against the gate. The latency
// runs from the POST to the done event.
func (s *httpSys) job(ctx context.Context, o op, c *client, caller int, tr *tracer) sample {
	smp := sample{job: true, op: o}
	key := fmt.Sprintf("c%d-%d", caller, c.n)
	spec, err := json.Marshal(server.JobSpec{Workload: o.input, Config: o.config})
	if err != nil {
		smp.err = err
		return smp
	}
	root := tr.start(key, spanJob, 0)
	defer tr.finish(root)

	t := time.Now()
	sp := tr.start(key, "submit", root)
	code, _, body, err := s.call(ctx, http.MethodPost, "/v1/jobs", spec, key)
	tr.finish(sp)
	var view server.JobView
	if err = s.expect(code, http.StatusAccepted, body, err, &view); err != nil {
		smp.err = fmt.Errorf("submit %s: %w", o.key(), err)
		return smp
	}
	s.mu.Lock()
	s.sent = append(s.sent, submitted{key: key, id: view.ID, spec: spec})
	s.mu.Unlock()

	sp = tr.start(key, "events", root)
	done, err := s.awaitDone(ctx, view.ID)
	recv := time.Now()
	tr.finish(sp)
	smp.lat = recv.Sub(t)
	if err != nil {
		smp.err = fmt.Errorf("events %s (%s): %w", view.ID, o.key(), err)
		return smp
	}

	sp = tr.start(key, "get", root)
	code, _, body, err = s.call(ctx, http.MethodGet, "/v1/jobs/"+view.ID, nil, "")
	tr.finish(sp)
	var final server.JobView
	if err = s.expect(code, http.StatusOK, body, err, &final); err != nil {
		smp.err = fmt.Errorf("get %s: %w", view.ID, err)
		return smp
	}
	if smp.err = checkResult(final, done); smp.err != nil {
		return smp
	}
	r := final.Result
	d, _ := strconv.ParseUint(r.MemDigest, 16, 64) // checkResult parsed it
	smp.out = outcome{digest: d, ticks: r.Ticks, steps: r.Steps}
	smp.energyNJ = r.Energy.TotalNJ
	if smp.err = s.gate.check(o, smp.out, false); smp.err != nil {
		return smp
	}
	if tr != nil {
		sp = tr.start(key, stageResultEncode, root)
		_, err = json.Marshal(r)
		tr.finish(sp)
		if err != nil {
			smp.err = err
			return smp
		}
		s.recordTimes(o, final, recv)
	}
	return smp
}

// checkResult requires an ok job whose fetched result matches the one
// its done event carried.
func checkResult(v server.JobView, done *server.ResultJSON) error {
	r := v.Result
	switch {
	case v.Status != "ok" || r == nil:
		return fmt.Errorf("%s: status %s", v.ID, v.Status)
	case r.Energy == nil:
		return fmt.Errorf("%s: result has no energy", v.ID)
	case done.MemDigest != r.MemDigest || done.Ticks != r.Ticks || done.Steps != r.Steps:
		return fmt.Errorf("%s: done event result %s/%d/%d differs from fetched %s/%d/%d",
			v.ID, done.MemDigest, done.Ticks, done.Steps, r.MemDigest, r.Ticks, r.Steps)
	}
	if _, err := strconv.ParseUint(r.MemDigest, 16, 64); err != nil {
		return fmt.Errorf("%s: digest %q: %w", v.ID, r.MemDigest, err)
	}
	return nil
}

// recordTimes keeps a traced job's server-side waits (from the view's
// timestamps) and its simulated counters. The coordinator stamps a
// job's start only when a heartbeat reports it running, so a cluster
// job that finishes within one heartbeat has no start time and no
// dispatch wait: cluster.dispatch_wait_ms covers the other jobs only.
func (s *httpSys) recordTimes(o op, v server.JobView, recv time.Time) {
	queued, err1 := time.Parse(time.RFC3339Nano, v.Queued)
	started, err2 := time.Parse(time.RFC3339Nano, v.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, v.Finished)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err1 == nil && err2 == nil {
		s.timings["queue"] = append(s.timings["queue"], ms(started.Sub(queued)))
	}
	if err3 == nil {
		s.timings["notify"] = append(s.timings["notify"], ms(recv.Sub(finished)))
	}
	if _, ok := s.results[o.key()]; !ok {
		s.results[o.key()] = *v.Result
	}
}

// expect checks a status code and decodes a JSON body into out.
func (s *httpSys) expect(code, want int, body []byte, err error, out any) error {
	if err != nil {
		return err
	}
	if code != want {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			s.mu.Lock()
			s.refused++
			s.mu.Unlock()
		}
		return fmt.Errorf("HTTP %d, want %d: %s", code, want, strings.TrimSpace(string(body)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// awaitDone reads the job's server-sent events until the done event
// and returns its result.
func (s *httpSys) awaitDone(ctx context.Context, id string) (*server.ResultJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "done" {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, err
		}
		if ev.Result == nil {
			return nil, errors.New("done event without a result")
		}
		// Read to the end so the connection can be reused.
		_, err := io.Copy(io.Discard, resp.Body)
		return ev.Result, err
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("event stream ended before done")
}

// replay resubmits an earlier accepted spec under its Idempotency-Key;
// the service must answer with the original job. The cycle puts jobs
// first, so one has always been accepted by now.
func (s *httpSys) replay(ctx context.Context, c *client, tr *tracer) sample {
	s.mu.Lock()
	n := len(s.sent)
	var prev submitted
	if n > 0 {
		prev = s.sent[c.rng.Intn(n)]
	}
	s.mu.Unlock()
	if n == 0 {
		return sample{op: op{input: "replay"}, err: errors.New("no accepted submission to replay")}
	}
	smp := sample{op: op{input: "replay", config: prev.key}}
	sp := tr.start(prev.key, "dedup", 0)
	code, hdr, body, err := s.call(ctx, http.MethodPost, "/v1/jobs", prev.spec, prev.key)
	tr.finish(sp)
	var view server.JobView
	if err = s.expect(code, http.StatusAccepted, body, err, &view); err != nil {
		smp.err = err
	} else if view.ID != prev.id || hdr.Get("Idempotency-Replayed") != "true" {
		smp.err = fmt.Errorf("replay of key %s answered job %s (replayed=%q), want %s",
			prev.key, view.ID, hdr.Get("Idempotency-Replayed"), prev.id)
	}
	return smp
}

// read makes one GET that must answer 200 with a body check passes.
func (s *httpSys) read(ctx context.Context, tr *tracer, name, path string, check func([]byte) error) sample {
	smp := sample{op: op{input: name, config: path}}
	sp := tr.start(name, name, 0)
	code, _, body, err := s.call(ctx, http.MethodGet, path, nil, "")
	tr.finish(sp)
	if err = s.expect(code, http.StatusOK, body, err, nil); err == nil {
		err = check(body)
	}
	if err != nil {
		smp.err = fmt.Errorf("GET %s: %w", path, err)
	}
	return smp
}

// malformed sends a spec naming no workload the service knows; it must
// be refused with 400 and is not an error.
func (s *httpSys) malformed(ctx context.Context) sample {
	smp := sample{op: op{input: "malformed", config: "400"}}
	code, _, body, err := s.call(ctx, http.MethodPost, "/v1/jobs", []byte(`{"workload":"no_such_workload"}`), "")
	if err == nil && code != http.StatusBadRequest {
		err = fmt.Errorf("malformed spec answered HTTP %d, want 400: %s", code, strings.TrimSpace(string(body)))
	}
	smp.err = err
	return smp
}

// layers computes the per-layer metrics of the traced phase: client
// spans per HTTP call, server-side waits from the job views, the
// simulated counters the results carry, and for the cluster the
// coordinator's RPC counters.
func (s *httpSys) layers(tr *tracer, m metricSet) error {
	by := tr.byName()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.results) == 0 {
		return fmt.Errorf("the traced phase completed no jobs")
	}
	m["cluster.submit_ms"] = by["submit"].meanSelfMS()
	m["cluster.notify_ms"] = mean(s.timings["notify"])
	m["cluster.dispatch_wait_ms"] = mean(s.timings["queue"])
	m["server.result_encode_ms"] = by[stageResultEncode].meanSelfMS()
	m["server.get_ms"] = by["get"].meanSelfMS()
	for name, metric := range map[string]string{"list": "server.list_ms", "metrics": "server.metrics_ms", "dedup": "server.dedup_ms"} {
		if by[name].count > 0 {
			m[metric] = by[name].meanSelfMS()
		}
	}
	m["server.refused"] = float64(s.refused)

	var takeovers, iters, fallbacks uint64
	dsaJobs := 0
	for k, r := range s.results {
		if strings.HasSuffix(k, "/scalar") {
			continue
		}
		dsaJobs++
		takeovers += r.Takeovers
		iters += r.VectorizedIters
		fallbacks += r.Fallbacks
	}
	if dsaJobs > 0 {
		m["dsa.takeovers"] = float64(takeovers)
		m["dsa.vectorized_iters"] = float64(iters)
		m["dsa.fallbacks"] = float64(fallbacks)
	}

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	code, _, body, err := s.call(ctx, http.MethodGet, "/metrics", nil, "")
	if err = s.expect(code, http.StatusOK, body, err, nil); err != nil {
		return fmt.Errorf("coordinator metrics: %w", err)
	}
	for name, metric := range map[string]string{
		"dsasimd_cluster_rpc_retries_total":         "cluster.rpc_retries",
		"dsasimd_cluster_heartbeats_rejected_total": "cluster.heartbeats_rejected",
	} {
		v, err := promValue(body, name)
		if err != nil {
			return err
		}
		m[metric] = v
	}
	return nil
}

// promValue reads an unlabelled sample from a Prometheus text
// exposition.
func promValue(text []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}
