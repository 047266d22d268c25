package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/snapshot"
)

// Config parameterizes the service.
type Config struct {
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	// A full queue refuses submissions with 429 + Retry-After.
	QueueDepth int
	// Workers bounds concurrent simulations (0 = runner default).
	Workers int
	// SnapshotDir holds per-job runner checkpoints. Empty disables
	// durability: drains then interrupt without resume.
	SnapshotDir string
	// StateFile is the daemon-owned job table (snapshot container).
	// Empty disables job-table persistence.
	StateFile string
	// Runner carries the execution knobs (timeout, retries, backoff,
	// memory budget, snapshot cadence, progress cadence). Workers,
	// SnapshotDir and OnProgress are owned by the server and
	// overwritten.
	Runner runner.Options
	// RetryAfter is the backpressure hint on 429 responses
	// (0 = DefaultRetryAfter). The advertised value carries a small
	// random jitter above this base so a rejected fleet does not
	// reconverge on one retry instant.
	RetryAfter time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Service defaults.
const (
	DefaultQueueDepth = 64
	DefaultRetryAfter = 2 * time.Second
)

// Server is the dsasimd service core, transport-agnostic: Handler
// serves its HTTP API (the shared job API over its table), Drain runs
// the graceful shutdown. One Server owns one runner.Pool for its whole
// life.
type Server struct {
	*API
	cfg     Config
	pool    *runner.Pool
	queue   chan *Job
	stopCh  chan struct{}
	wg      sync.WaitGroup
	baseCtx context.Context
	cancel  context.CancelFunc
	metrics *metrics

	// mu guards the job table, persisted with its Idempotency-Key
	// index so the dedup survives a restart.
	mu    sync.Mutex
	table *Table

	drainOnce sync.Once
}

// New builds the service, restores the job table from cfg.StateFile
// (re-queueing unfinished jobs with resume semantics), and starts the
// worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	s := &Server{
		cfg:     cfg,
		queue:   make(chan *Job, cfg.QueueDepth),
		stopCh:  make(chan struct{}),
		metrics: newMetrics(),
		table:   NewTable(),
	}
	s.API = NewAPI(&s.mu, s.table, Daemon{
		Draining: func() bool { return s.pool.Draining() },
		Refuse:   s.refuseLocked,
		Admitted: s.admittedLocked,
		Unready:  s.unready,
		Metrics:  s.Metrics,
		Counts:   &s.metrics.admissions,
	})
	s.baseCtx, s.cancel = context.WithCancel(context.Background())

	ropts := cfg.Runner
	ropts.Workers = cfg.Workers
	ropts.SnapshotDir = cfg.SnapshotDir
	ropts.OnProgress = s.onProgress
	s.pool = runner.NewPool(ropts)

	if err := s.restore(); err != nil {
		// A bad state file is quarantined, not fatal: the service must
		// come back up even when its own table is damaged.
		cfg.Logf("dsasimd: %v", err)
	}

	// One server worker per pool slot: queue latency stays visible in
	// queue depth instead of hiding inside blocked Do calls.
	for i := 0; i < s.pool.Workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// restore loads the persisted job table and re-queues unfinished work.
func (s *Server) restore() error {
	var st stateFile
	found, err := LoadState(s.cfg.StateFile, stateSection, &st)
	if !found {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table.Restore(st.Jobs, st.lastID())
	requeued := 0
	for _, j := range s.table.Jobs() {
		if Terminal(j.Status) {
			continue
		}
		// Interrupted and mid-run jobs resume from their checkpoint;
		// queued ones simply run (their resume finds no file and
		// starts clean).
		j.Resume = j.Resume || j.Status != StatusQueued
		j.Status = StatusQueued
		select {
		case s.queue <- j:
			requeued++
		default:
			// More surviving jobs than queue slots: keep them queued in
			// the table; they re-enter on the next restart. This can
			// only happen when QueueDepth shrank across the restart.
			s.cfg.Logf("dsasimd: job %s does not fit the shrunken queue; parked", j.ID)
		}
	}
	if requeued > 0 {
		s.cfg.Logf("dsasimd: restored %d job(s) from %s, %d re-queued", len(st.Jobs), s.cfg.StateFile, requeued)
	}
	return nil
}

// saveStateLocked writes the job table crash-consistently. The caller
// must hold s.mu.
func (s *Server) saveStateLocked() error {
	st := stateFile{NextID: s.table.LastID() + 1, Jobs: s.table.Rows()}
	return SaveState(s.cfg.StateFile, snapshot.Writer{}, stateSection, st)
}

// worker pulls admitted jobs until the server drains or closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		if s.pool.Draining() {
			return
		}
		select {
		case <-s.stopCh:
			return
		case j := <-s.queue:
			s.runOne(j)
		}
	}
}

// runOne executes one admitted job through the pool and publishes its
// lifecycle.
func (s *Server) runOne(j *Job) {
	job, err := j.Spec.RunnerJob(j.ID)
	if err != nil {
		// Validate() gates submissions, so this is a state-file edit or
		// a workload renamed across versions — fail the job, keep the
		// service.
		s.finish(j, ResultJSON{Job: j.ID, Status: string(runner.StatusFailed), Cause: "bad-spec", Error: err.Error()})
		return
	}

	s.mu.Lock()
	job.Resume = j.Resume
	j.Status = StatusRunning
	j.Started = time.Now()
	s.mu.Unlock()
	j.Events.Publish(Event{Type: "status", Job: j.ID, Status: StatusRunning})

	res := s.pool.Do(s.baseCtx, job)

	if res.Status == runner.StatusFailed && res.Cause == runner.CauseDrained {
		s.mu.Lock()
		j.Status = StatusInterrupted
		j.Resume = true
		s.mu.Unlock()
		s.metrics.onInterrupt()
		j.Events.Publish(Event{Type: "status", Job: j.ID, Status: StatusInterrupted})
		s.cfg.Logf("dsasimd: job %s interrupted by drain (checkpoint kept)", j.ID)
		return
	}
	if res.ResumedFromStep > 0 {
		s.metrics.onResume()
	}
	s.finish(j, ResultFromRunner(res))
}

// finish records a terminal result, persists the table, and notifies.
func (s *Server) finish(j *Job, r ResultJSON) {
	s.mu.Lock()
	j.Status = r.Status
	j.Finished = time.Now()
	j.Result = &r
	wall := j.Finished.Sub(j.Started)
	if err := s.saveStateLocked(); err != nil {
		s.cfg.Logf("dsasimd: saving state: %v", err)
	}
	s.mu.Unlock()
	s.metrics.onDone(r, wall)
	j.Events.Publish(Event{Type: "done", Job: j.ID, Status: r.Status, Result: &r})
	s.cfg.Logf("dsasimd: job %s %s (attempts=%d wall=%s)", j.ID, r.Status, r.Attempts, wall.Round(time.Millisecond))
}

// onProgress routes pool progress samples to their job.
func (s *Server) onProgress(p runner.Progress) {
	s.mu.Lock()
	j := s.table.Get(p.Job)
	var pj *ProgressJSON
	if j != nil {
		pj = &ProgressJSON{Job: p.Job, Attempt: p.Attempt, DSAOff: p.DSAOff,
			Steps: p.Steps, Ticks: p.Ticks, Takeovers: p.Takeovers, Fallbacks: p.Fallbacks}
		j.Progress = pj
	}
	s.mu.Unlock()
	if j != nil {
		j.Events.Publish(Event{Type: "progress", Job: p.Job, Status: StatusRunning, Progress: pj})
	}
}

// refuseLocked turns a submission away when the admission queue is
// full. Only submissions, serialized by s.mu, send to the queue once
// the server runs, so a slot seen here is still free in
// admittedLocked.
func (s *Server) refuseLocked() *AdmissionError {
	if len(s.queue) < s.cfg.QueueDepth {
		return nil
	}
	return &AdmissionError{Code: http.StatusTooManyRequests,
		Msg: fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueDepth), RetryAfter: s.cfg.RetryAfter}
}

// admittedLocked queues a job the API just entered in the table and
// persists the table.
func (s *Server) admittedLocked(j *Job) {
	s.queue <- j
	if err := s.saveStateLocked(); err != nil {
		s.cfg.Logf("dsasimd: saving state: %v", err)
	}
}

// unready is the readiness reason beyond draining: a full admission
// queue.
func (s *Server) unready() string {
	if len(s.queue) >= s.cfg.QueueDepth {
		return "queue full"
	}
	return ""
}

// Drain is the graceful-shutdown path: refuse new work, ask every
// running attempt to checkpoint and unwind, wait for the workers
// (bounded by ctx), persist the job table, and release the pool.
// Interrupted and queued jobs survive in the table; a New() on the
// same StateFile/SnapshotDir resumes them bit-identically. Drain is
// idempotent: only the first call does the work (and reports errors),
// repeats return nil immediately.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() { err = s.drain(ctx) })
	return err
}

func (s *Server) drain(ctx context.Context) error {
	s.pool.Drain()
	close(s.stopCh)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("drain: workers still busy: %w", ctx.Err())
	}

	s.mu.Lock()
	if serr := s.saveStateLocked(); serr != nil && err == nil {
		err = serr
	}
	s.mu.Unlock()
	s.cancel()
	s.pool.Close()
	s.cfg.Logf("dsasimd: drained")
	return err
}

// Metrics renders the Prometheus exposition.
func (s *Server) Metrics() string {
	inUse, capacity := s.pool.MemUsage()
	return s.metrics.render(gauges{
		queueDepth:    len(s.queue),
		queueCapacity: s.cfg.QueueDepth,
		inflight:      s.pool.Inflight(),
		memInUse:      inUse,
		memCapacity:   capacity,
	})
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}
