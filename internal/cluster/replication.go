package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/snapshot"
)

// Replication stream.
//
// The leader tees every state mutation — job admitted/assigned/
// finished, worker joined/expired, counters bumped — into a bounded
// in-memory delta log and pushes the unacknowledged suffix to every
// standby on the heartbeat cadence (an empty push doubles as the
// leader's liveness signal). Each record carries a sequence number; a
// standby applies a batch only if it extends its last applied sequence
// contiguously, and answers with that watermark so the leader knows
// where to resume. A standby that is behind the log's bounded tail —
// or freshly adopted a new leader — asks for a full snapshot record
// instead, which replaces its mirror wholesale. The wire format is the
// snapshot package's CRC-framed record stream: a batch that was
// truncated or bit-flipped in flight is rejected whole, never applied
// in part.

// Record kinds. Every record updates the standby's mirror of the
// coordinator's persisted state.
const (
	recJob       = "job"        // upsert one job (admission, assignment, completion)
	recWorker    = "worker"     // upsert one worker lease (join, restore)
	recWorkerDel = "worker_del" // drop one worker lease (expiry)
	recCounters  = "counters"   // the three monotonic counters
	recSnapshot  = "snapshot"   // full state replacing the mirror (catch-up)
)

// repCounters mirrors the coordinator's monotonic counters. NextEpoch
// is the per-term assignment counter — the low half of composed
// fencing epochs.
type repCounters struct {
	NextJob    uint64 `json:"next_job"`
	NextWorker uint64 `json:"next_worker"`
	NextEpoch  uint64 `json:"next_epoch"`
}

// repRecord is one replication stream entry.
type repRecord struct {
	Seq       uint64           `json:"seq"`
	Kind      string           `json:"kind"`
	Job       *server.JobRow   `json:"job,omitempty"`
	Worker    *persistedWorker `json:"worker,omitempty"`
	WorkerDel string           `json:"worker_del,omitempty"`
	Counters  *repCounters     `json:"counters,omitempty"`
	State     *clusterState    `json:"state,omitempty"`
}

// replicateHeader is the first record of every batch: which leadership
// term is speaking. A receiver that knows a higher term answers 409 —
// the fence that stops a deposed leader's writes.
type replicateHeader struct {
	LeaderEpoch uint64 `json:"leader_epoch"`
	Leader      string `json:"leader"`
}

// ReplicateResponse acknowledges a batch.
type ReplicateResponse struct {
	// LastSeq is the standby's applied watermark; the leader resumes
	// the stream from LastSeq+1.
	LastSeq uint64 `json:"last_seq"`
	// NeedSnapshot asks the leader to send a full snapshot record next:
	// the standby has no consistent mirror of this term yet, or the
	// stream gapped past the leader's bounded tail.
	NeedSnapshot bool `json:"need_snapshot,omitempty"`
}

// replTailMax bounds the leader's in-memory delta log. A standby that
// falls further behind than this catches up via a snapshot record
// instead of deltas.
const replTailMax = 512

// replicator is the leader's delta log: sequence numbers, a bounded
// tail, and a wake channel the push loops select on so a mutation
// reaches the standbys at once instead of waiting out a heartbeat.
type replicator struct {
	mu   sync.Mutex
	seq  uint64
	tail []repRecord

	notify chan struct{}
}

func newReplicator() *replicator {
	return &replicator{notify: make(chan struct{}, 1)}
}

// append stamps rec with the next sequence number and wakes the push
// loops. Callers hold the coordinator's mutex, which is what makes the
// log's order the mutation order.
func (r *replicator) append(rec repRecord) {
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	r.tail = append(r.tail, rec)
	if len(r.tail) > replTailMax {
		// Drop the oldest half in one copy; laggards re-sync by snapshot.
		keep := r.tail[len(r.tail)-replTailMax/2:]
		r.tail = append(make([]repRecord, 0, replTailMax), keep...)
	}
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// last returns the highest sequence number issued.
func (r *replicator) last() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// since returns the records after watermark acked, or ok=false when
// that suffix has fallen off the bounded tail (send a snapshot). An
// up-to-date follower gets (nil, true): the empty heartbeat batch.
func (r *replicator) since(acked uint64) ([]repRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if acked >= r.seq {
		return nil, true
	}
	if len(r.tail) == 0 || r.tail[0].Seq > acked+1 {
		return nil, false
	}
	idx := int(acked + 1 - r.tail[0].Seq)
	out := make([]repRecord, len(r.tail)-idx)
	copy(out, r.tail[idx:])
	return out, true
}

// wake is the channel append signals on.
func (r *replicator) wake() <-chan struct{} { return r.notify }

// encodeReplicateBatch frames a header plus records as a CRC-checked
// record stream.
func encodeReplicateBatch(h replicateHeader, recs []repRecord) ([]byte, error) {
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	b := snapshot.AppendRecord(nil, hb)
	for i := range recs {
		rb, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, err
		}
		b = snapshot.AppendRecord(b, rb)
	}
	return b, nil
}

// decodeReplicateBatch validates and decodes one batch body.
func decodeReplicateBatch(b []byte) (replicateHeader, []repRecord, error) {
	var h replicateHeader
	frames, err := snapshot.SplitRecords(b)
	if err != nil {
		return h, nil, err
	}
	if len(frames) == 0 {
		return h, nil, fmt.Errorf("%w: batch without header record", snapshot.ErrCorrupt)
	}
	if err := json.Unmarshal(frames[0], &h); err != nil {
		return h, nil, fmt.Errorf("%w: batch header: %v", snapshot.ErrCorrupt, err)
	}
	recs := make([]repRecord, len(frames)-1)
	for i, f := range frames[1:] {
		if err := json.Unmarshal(f, &recs[i]); err != nil {
			return h, nil, fmt.Errorf("%w: record %d: %v", snapshot.ErrCorrupt, i, err)
		}
	}
	return h, recs, nil
}

// PostReplicate sends one empty replication batch (a leader liveness
// push) claiming leadership term leaderEpoch to a coordinator at base.
// Its main consumers are the HA tests: a batch under a superseded term
// must come back 409 — the fence that proves a deposed leader cannot
// write past a failover.
func PostReplicate(hc *http.Client, base string, leaderEpoch uint64, leader string) (int, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	body, err := encodeReplicateBatch(replicateHeader{LeaderEpoch: leaderEpoch, Leader: leader}, nil)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/cluster/v1/replicate", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// standby is a node's warm mirror of the leader's persisted state,
// maintained by applying the replication stream. Guarded by the node's
// mutex.
type standby struct {
	// leaderEpoch/leader identify the term being followed. leader may
	// be empty briefly (term learned from a claim file whose body was
	// not readable yet); the first push fills it in.
	leaderEpoch uint64
	leader      string
	// lastSeq is the applied watermark; synced reports whether the
	// mirror is consistent for this term (a snapshot record arrived, or
	// the term started from one).
	lastSeq uint64
	synced  bool
	// applied counts records folded into the mirror since this node
	// became a standby — the "is this mirror worth promoting" signal.
	applied uint64
	// lastPush is when the leader last proved liveness here; threshold
	// is this node's randomized takeover patience (jittered so rival
	// standbys don't race every failover).
	lastPush  time.Time
	threshold time.Duration

	jobs     map[string]*server.JobRow
	order    []string
	workers  map[string]*persistedWorker
	counters repCounters
}

func newStandby(leaderEpoch uint64, leader string, ttl time.Duration) *standby {
	return &standby{
		leaderEpoch: leaderEpoch,
		leader:      leader,
		lastPush:    time.Now(),
		threshold:   ttl + fullJitter(ttl),
		jobs:        map[string]*server.JobRow{},
		workers:     map[string]*persistedWorker{},
	}
}

// adopt resets the mirror onto a new leadership term.
func (sb *standby) adopt(leaderEpoch uint64, leader string) {
	sb.leaderEpoch = leaderEpoch
	if leader != "" {
		sb.leader = leader
	}
	sb.lastSeq, sb.synced, sb.applied = 0, false, 0
	sb.jobs = map[string]*server.JobRow{}
	sb.order = nil
	sb.workers = map[string]*persistedWorker{}
	sb.counters = repCounters{}
	sb.lastPush = time.Now()
}

// install replaces the mirror with a full snapshot record.
func (sb *standby) install(st *clusterState, seq uint64) {
	sb.jobs = map[string]*server.JobRow{}
	sb.order = nil
	sb.workers = map[string]*persistedWorker{}
	for i := range st.Jobs {
		sb.upsertJob(&st.Jobs[i])
	}
	for i := range st.Workers {
		pw := st.Workers[i]
		sb.workers[pw.ID] = &pw
	}
	sb.counters = repCounters{NextJob: st.NextJob, NextWorker: st.NextWorker, NextEpoch: st.NextEpoch}
	sb.lastSeq = seq
	sb.synced = true
	sb.applied++
}

func (sb *standby) upsertJob(pj *server.JobRow) {
	cp := *pj
	if _, ok := sb.jobs[cp.ID]; !ok {
		sb.order = append(sb.order, cp.ID)
	}
	sb.jobs[cp.ID] = &cp
}

// apply folds one decoded batch into the mirror. Records must extend
// lastSeq contiguously; duplicates are skipped, a gap stops the batch
// (the response's watermark makes the leader resend or snapshot).
func (sb *standby) apply(recs []repRecord) {
	for i := range recs {
		rec := &recs[i]
		if rec.Kind == recSnapshot {
			if rec.State != nil {
				sb.install(rec.State, rec.Seq)
			}
			continue
		}
		if rec.Seq <= sb.lastSeq {
			continue // duplicate delivery
		}
		if rec.Seq != sb.lastSeq+1 || !sb.synced {
			return // gap, or deltas before any snapshot: wait for catch-up
		}
		switch rec.Kind {
		case recJob:
			if rec.Job != nil {
				sb.upsertJob(rec.Job)
			}
		case recWorker:
			if rec.Worker != nil {
				cp := *rec.Worker
				sb.workers[cp.ID] = &cp
			}
		case recWorkerDel:
			delete(sb.workers, rec.WorkerDel)
		case recCounters:
			if rec.Counters != nil {
				sb.counters = *rec.Counters
			}
		}
		sb.lastSeq = rec.Seq
		sb.applied++
	}
}

// export renders the mirror as a clusterState a promoted coordinator
// can adopt.
func (sb *standby) export() *clusterState {
	st := &clusterState{
		NextJob:    sb.counters.NextJob,
		NextWorker: sb.counters.NextWorker,
		NextEpoch:  sb.counters.NextEpoch,
	}
	for _, id := range sb.order {
		st.Jobs = append(st.Jobs, *sb.jobs[id])
	}
	for _, pw := range sb.workers {
		st.Workers = append(st.Workers, *pw)
	}
	return st
}
