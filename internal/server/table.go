package server

import (
	"fmt"
	"time"
)

// Job is one job's record in a Table. The daemon that owns the table
// guards every field with its own mutex; Events has its own lock.
type Job struct {
	ID     string
	Spec   JobSpec
	Status string
	// Owner/Epoch are the cluster lease: which worker may write this
	// job's results, and the fencing token those writes must carry.
	// Owner "" means unassigned (Epoch then remembers the last
	// assignment, so reassignment always bumps past it). The standalone
	// daemon leaves both zero.
	Owner string
	Epoch uint64
	// Resume marks a job re-queued after a drain, a restart or a
	// takeover: its next attempt restores from its checkpoint.
	Resume bool
	// IdemKey, when set, is the Idempotency-Key the job was submitted
	// under; later submissions with the same key replay this job.
	IdemKey string
	// Queued is the admission time; Started/Finished bracket the job's
	// time on a worker.
	Queued, Started, Finished time.Time
	Progress                  *ProgressJSON
	Result                    *ResultJSON
	Events                    *Broadcaster
}

// View renders the job in the polling shape of GET /v1/jobs/{id}.
func (j *Job) View() JobView {
	return JobView{
		ID:       j.ID,
		Status:   j.Status,
		Spec:     j.Spec,
		Queued:   fmtTime(j.Queued),
		Started:  fmtTime(j.Started),
		Finished: fmtTime(j.Finished),
		Progress: j.Progress,
		Result:   j.Result,
		Owner:    j.Owner,
		Epoch:    j.Epoch,
	}
}

// JobRow is one job's durable row: what both daemons' state files
// and the cluster's replication stream carry per job.
type JobRow struct {
	ID      string      `json:"id"`
	Spec    JobSpec     `json:"spec"`
	Status  string      `json:"status"`
	Owner   string      `json:"owner,omitempty"`
	Epoch   uint64      `json:"epoch,omitempty"`
	Resume  bool        `json:"resume,omitempty"`
	IdemKey string      `json:"idem_key,omitempty"`
	Queued  string      `json:"queued,omitempty"`
	Result  *ResultJSON `json:"result,omitempty"`
}

// Row renders the job's durable row.
func (j *Job) Row() JobRow {
	return JobRow{
		ID:      j.ID,
		Spec:    j.Spec,
		Status:  j.Status,
		Owner:   j.Owner,
		Epoch:   j.Epoch,
		Resume:  j.Resume,
		IdemKey: j.IdemKey,
		Queued:  fmtTime(j.Queued),
		Result:  j.Result,
	}
}

// Table is a daemon's job table: the jobs in submission order, the
// job-ID counter and the Idempotency-Key index. It has no lock of its
// own; the owning daemon's mutex guards it.
type Table struct {
	byID  map[string]*Job
	byKey map[string]*Job
	order []*Job
	// lastID is the highest job number issued (IDs are j%06d).
	lastID uint64
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byID: map[string]*Job{}, byKey: map[string]*Job{}}
}

// Get returns the job with the given ID, or nil.
func (t *Table) Get(id string) *Job { return t.byID[id] }

// Jobs returns every job in submission order. The slice is the
// table's own: callers must not modify it.
func (t *Table) Jobs() []*Job { return t.order }

// LastID is the highest job number issued so far.
func (t *Table) LastID() uint64 { return t.lastID }

// Rows renders every job's durable row in submission order.
func (t *Table) Rows() []JobRow {
	rows := make([]JobRow, 0, len(t.order))
	for _, j := range t.order {
		rows = append(rows, j.Row())
	}
	return rows
}

// add enters a new queued job under the next ID not already taken: a
// counter restored from a damaged or lagging table must not make a
// submission overwrite a live job.
func (t *Table) add(spec JobSpec, idemKey string) *Job {
	id := ""
	for id == "" || t.byID[id] != nil {
		t.lastID++
		id = fmt.Sprintf("j%06d", t.lastID)
	}
	j := &Job{
		ID:      id,
		Spec:    spec,
		Status:  StatusQueued,
		IdemKey: idemKey,
		Queued:  time.Now(),
		Events:  NewBroadcaster(),
	}
	t.insert(j)
	return j
}

func (t *Table) insert(j *Job) {
	t.byID[j.ID] = j
	t.order = append(t.order, j)
	if j.IdemKey != "" {
		t.byKey[j.IdemKey] = j
	}
}

// Restore fills an empty table from persisted rows and the persisted
// ID counter. Terminal jobs get their "done" event replayed so a late
// SSE subscriber still receives the result; what happens to the
// others is the daemon's call. A row repeating an earlier row's ID is
// dropped.
func (t *Table) Restore(rows []JobRow, lastID uint64) {
	t.lastID = lastID
	for i := range rows {
		r := &rows[i]
		if t.byID[r.ID] != nil {
			continue
		}
		j := &Job{
			ID:      r.ID,
			Spec:    r.Spec,
			Status:  r.Status,
			Owner:   r.Owner,
			Epoch:   r.Epoch,
			Resume:  r.Resume,
			IdemKey: r.IdemKey,
			Result:  r.Result,
			Events:  NewBroadcaster(),
		}
		if q, err := time.Parse(time.RFC3339Nano, r.Queued); err == nil {
			j.Queued = q
		}
		t.insert(j)
		if Terminal(j.Status) && j.Result != nil {
			j.Events.Publish(Event{Type: "done", Job: j.ID, Status: j.Status, Result: j.Result})
		}
	}
}

// fmtTime renders a timestamp for JobView ("" for the zero time).
func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
