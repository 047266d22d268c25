package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Config parameterizes the coordinator.
type Config struct {
	// LeaseTTL is how long a worker lease lives without a heartbeat
	// renewal (0 = DefaultLeaseTTL). Workers learn it at join and
	// heartbeat at a third of it.
	LeaseTTL time.Duration
	// MaxJobs bounds the non-terminal job table (0 = DefaultMaxJobs).
	// A full table refuses submissions with 429 + Retry-After.
	MaxJobs int
	// RetryAfter is the backpressure hint base on 429 responses
	// (0 = server.DefaultRetryAfter); the advertised value is jittered.
	RetryAfter time.Duration
	// StateFile persists the job table, the lease table, and — load
	// bearing for fencing — the epoch counter across restarts. Empty
	// disables persistence.
	StateFile string
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// The fields below are in-package seams the HA node threads through
	// when it runs a coordinator as the leader of a replicated set.
	// Solo mode leaves them zero.

	// metrics, when non-nil, is a shared registry: counters like
	// failovers must survive the node's role flips, so the node owns
	// one registry across every coordinator it promotes.
	metrics *clusterMetrics
	// leaderEpoch is the leadership term. Non-zero, it occupies the
	// high 32 bits of every assignment epoch this coordinator mints, so
	// a newer leader's assignments fence above everything any deposed
	// leader ever issued. Zero (solo mode) leaves assignment epochs as
	// the raw counter, bit-compatible with single-coordinator operation.
	leaderEpoch uint64
	// preload, when non-nil, replaces the state-file restore: the
	// replicated mirror a promoted standby adopts.
	preload *clusterState
	// repl, when non-nil, receives a delta record for every state
	// mutation — the feed the leader pushes to its standbys.
	repl *replicator
}

// Coordinator defaults.
const (
	DefaultLeaseTTL = 5 * time.Second
	DefaultMaxJobs  = 256
)

// workerEntry is one live worker's lease.
type workerEntry struct {
	id       string
	capacity int
	deadline time.Time
	// session is the nonce minted at join. A heartbeat renews this
	// lease only if it presents the nonce: a delayed duplicate from a
	// fenced predecessor that happened to reuse the ID cannot.
	session string
	// lastSeq is the highest heartbeat sequence number accepted this
	// session; replays (seq <= lastSeq) are rejected with 409.
	lastSeq uint64
	// jobs is the set of job IDs currently leased to this worker.
	jobs map[string]struct{}
}

// newSession mints an unguessable session nonce.
func newSession() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cluster: reading session entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Coordinator owns the cluster's job table and lease table, serves the
// public job API (the standalone daemon's, over its own table), and
// runs the lease protocol against worker processes. Failure detection
// is the expiry loop: a worker that misses its lease TTL is declared
// dead and its jobs are reassigned at higher epochs.
type Coordinator struct {
	*server.API
	// handler serves the public API and the lease protocol; the HA
	// node dispatches into it while this coordinator leads.
	handler  http.Handler
	cfg      Config
	metrics  *clusterMetrics
	stopCh   chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
	draining atomic.Bool

	// leaderEpoch/repl mirror Config: the leadership term composed into
	// assignment epochs, and the replication log fed on every mutation.
	leaderEpoch uint64
	repl        *replicator

	// mu guards the job table, the lease table and the counters. The
	// table's Idempotency-Key index is persisted and replicated, so the
	// dedup survives a coordinator restart and a failover.
	mu      sync.Mutex
	table   *server.Table
	workers map[string]*workerEntry
	// nextEpoch is the fencing-token counter: every assignment gets
	// epoch stampEpochLocked() — ++nextEpoch composed under the
	// leadership term — globally monotonic across jobs, workers, and
	// (via the state file) coordinator restarts.
	nextWorker, nextEpoch uint64
}

// NewCoordinator builds the coordinator, restores its tables from
// cfg.StateFile, and starts the expiry/assignment loop.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = server.DefaultRetryAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	metrics := cfg.metrics
	if metrics == nil {
		metrics = newClusterMetrics()
	}
	c := &Coordinator{
		cfg:         cfg,
		metrics:     metrics,
		leaderEpoch: cfg.leaderEpoch,
		repl:        cfg.repl,
		stopCh:      make(chan struct{}),
		table:       server.NewTable(),
		workers:     map[string]*workerEntry{},
	}
	c.API = server.NewAPI(&c.mu, c.table, server.Daemon{
		Draining: c.draining.Load,
		Refuse:   c.refuseLocked,
		Admitted: c.admittedLocked,
		Unready:  c.unready,
		Metrics:  c.Metrics,
		Counts:   &metrics.admissions,
		// A coordinator answering readiness itself is the leader (the
		// HA node answers for its standbys); clients and probes key
		// off this.
		Role: "leader",
	})
	c.handler = c.routes()
	if cfg.preload != nil {
		// A promoted standby adopts its replicated mirror instead of
		// the state file — and persists it at once, so the file matches
		// the term it now leads.
		c.mu.Lock()
		c.adoptStateLocked(cfg.preload)
		c.saveStateLocked()
		c.mu.Unlock()
	} else if err := c.restore(); err != nil {
		// A bad state file is quarantined, not fatal — same policy as
		// the standalone daemon.
		cfg.Logf("dsasimd: %v", err)
	}

	c.wg.Add(1)
	go c.loop(leaseTick(cfg.LeaseTTL))
	return c, nil
}

// leaseTick is the period of the lease loops (the coordinator's expiry
// loop and the HA node's role loop): a quarter TTL, so a lapsed lease
// is noticed well before a whole TTL passes again, clamped to
// [1 ms, 250 ms] so tiny test TTLs do not burn a core.
func leaseTick(ttl time.Duration) time.Duration {
	return min(max(ttl/4, time.Millisecond), 250*time.Millisecond)
}

// loop is the failure detector: every tick it expires lapsed leases,
// requeues their jobs, and assigns pending work.
func (c *Coordinator) loop(tick time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.mu.Lock()
			c.expireLocked(time.Now())
			c.assignLocked()
			c.mu.Unlock()
		}
	}
}

// expireLocked declares workers with lapsed leases dead and requeues
// their non-terminal jobs for takeover.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, w := range c.workers {
		if !now.After(w.deadline) {
			continue
		}
		delete(c.workers, id)
		c.repWorkerDelLocked(id)
		c.metrics.onLeaseExpire()
		released := 0
		for jid := range w.jobs {
			j := c.table.Get(jid)
			if j == nil || server.Terminal(j.Status) || j.Owner != id {
				continue
			}
			j.Owner = ""
			j.Resume = true
			j.Status = server.StatusQueued
			c.repJobLocked(j)
			released++
		}
		c.metrics.onTakeover(released)
		c.cfg.Logf("dsasimd: worker %s lease expired, %d job(s) requeued for takeover", id, released)
		c.saveStateLocked()
	}
}

// assignLocked hands every unassigned queued job to a worker with
// spare capacity, chosen by consistent hashing on the job ID, each
// assignment under a freshly bumped fencing epoch. Jobs that find no
// eligible worker stay pending for the next pass.
func (c *Coordinator) assignLocked() {
	if len(c.workers) == 0 {
		return
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	r := newRing(ids)
	changed := false
	for _, j := range c.table.Jobs() {
		if j.Status != server.StatusQueued || j.Owner != "" {
			continue
		}
		w := r.owner(j.ID, func(wid string) bool {
			we := c.workers[wid]
			return len(we.jobs) < we.capacity
		})
		if w == "" {
			break // every worker is at capacity; later jobs can't do better
		}
		j.Owner = w
		j.Epoch = c.stampEpochLocked()
		c.workers[w].jobs[j.ID] = struct{}{}
		c.repJobLocked(j)
		changed = true
	}
	if changed {
		c.repCountersLocked()
		c.saveStateLocked()
	}
}

// stampEpochLocked mints the next assignment fencing epoch. Solo mode
// (leaderEpoch 0) issues the raw counter — bit-compatible with
// single-coordinator operation. Under HA the leadership term occupies
// the high 32 bits: every assignment minted by a newer leader compares
// strictly above every epoch any deposed leader ever issued, whatever
// their counters did, which is what keeps checkpoint preference
// (highest epoch ≤ the assignment's) and 409 write fencing correct
// across failovers.
func (c *Coordinator) stampEpochLocked() uint64 {
	c.nextEpoch++
	return c.leaderEpoch<<32 | c.nextEpoch
}

// repJobLocked / repWorkerLocked / repWorkerDelLocked / repCountersLocked
// tee one mutation into the replication log (no-ops without one). The
// caller must hold c.mu — that ordering is what makes the log replay
// deterministic.
func (c *Coordinator) repJobLocked(j *server.Job) {
	if c.repl == nil {
		return
	}
	row := j.Row()
	c.repl.append(repRecord{Kind: recJob, Job: &row})
}

func (c *Coordinator) repWorkerLocked(we *workerEntry) {
	if c.repl == nil {
		return
	}
	c.repl.append(repRecord{Kind: recWorker, Worker: &persistedWorker{ID: we.id, Capacity: we.capacity, Session: we.session}})
}

func (c *Coordinator) repWorkerDelLocked(id string) {
	if c.repl == nil {
		return
	}
	c.repl.append(repRecord{Kind: recWorkerDel, WorkerDel: id})
}

func (c *Coordinator) repCountersLocked() {
	if c.repl == nil {
		return
	}
	c.repl.append(repRecord{Kind: recCounters, Counters: &repCounters{NextJob: c.table.LastID(), NextWorker: c.nextWorker, NextEpoch: c.nextEpoch}})
}

// replicaSnapshot renders a full-state catch-up record, consistent
// with the log: appends happen under c.mu, so reading the sequence
// here pins exactly which deltas the snapshot subsumes.
func (c *Coordinator) replicaSnapshot() repRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.exportStateLocked()
	var seq uint64
	if c.repl != nil {
		seq = c.repl.last()
	}
	return repRecord{Seq: seq, Kind: recSnapshot, State: &st}
}

// refuseLocked turns a submission away when the table already holds
// MaxJobs open jobs. The caller must hold c.mu.
func (c *Coordinator) refuseLocked() *server.AdmissionError {
	open := 0
	for _, j := range c.table.Jobs() {
		if !server.Terminal(j.Status) {
			open++
		}
	}
	if open < c.cfg.MaxJobs {
		return nil
	}
	return &server.AdmissionError{
		Code:       http.StatusTooManyRequests,
		Msg:        fmt.Sprintf("job table full (%d open jobs)", open),
		RetryAfter: c.cfg.RetryAfter,
	}
}

// admittedLocked assigns a job the API just entered in the table,
// replicates and persists it. The caller must hold c.mu.
func (c *Coordinator) admittedLocked(j *server.Job) {
	c.assignLocked()
	// Replicate the admission even when no worker could take it yet
	// (assignLocked only records jobs it assigned). The upsert is
	// idempotent on the standby, so the duplicate is harmless.
	c.repJobLocked(j)
	c.repCountersLocked()
	c.saveStateLocked()
}

// unready is the readiness reason beyond draining: the cluster can
// usefully accept a submission only while some worker holds a current
// lease.
func (c *Coordinator) unready() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return "no live workers"
	}
	return ""
}

// gaugesSnapshot samples the point-in-time gauges. The HA node reuses
// it when it scrapes a leader, overriding the replication fields with
// its push-loop view.
func (c *Coordinator) gaugesSnapshot() clusterGauges {
	c.mu.Lock()
	inflight := make(map[string]int, len(c.workers))
	for id, w := range c.workers {
		inflight[id] = len(w.jobs)
	}
	pending := 0
	for _, j := range c.table.Jobs() {
		if j.Status == server.StatusQueued && j.Owner == "" {
			pending++
		}
	}
	g := clusterGauges{workersLive: len(c.workers), jobsPending: pending, inflight: inflight, role: 1}
	if c.repl != nil {
		g.replSeq = c.repl.last()
	}
	c.mu.Unlock()
	return g
}

// Metrics renders the Prometheus exposition. A solo coordinator is its
// own (only) leader: role 1, replication idle.
func (c *Coordinator) Metrics() string {
	return c.metrics.render(c.gaugesSnapshot())
}

// Close stops the expiry loop, marks the coordinator draining, and
// persists a final state snapshot. Workers keep running until their
// heartbeats fail; on the next coordinator start they either renew
// (restart within the grace TTL) or rejoin.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		c.draining.Store(true)
		close(c.stopCh)
		c.wg.Wait()
		c.mu.Lock()
		c.saveStateLocked()
		c.mu.Unlock()
		c.cfg.Logf("dsasimd: coordinator closed")
	})
}
