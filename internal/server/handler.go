package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// RoleHeader names a coordinator's role ("leader" or "standby") on
// the answers clients and workers route by.
const RoleHeader = "X-Dsasimd-Role"

// Daemon is what one executor — the standalone daemon or the cluster
// coordinator — plugs into the shared job API.
type Daemon struct {
	// Draining reports a shutdown in progress: submissions answer 503,
	// /healthz says "draining" and /readyz is unready.
	Draining func() bool
	// Refuse runs with the table locked before a valid, new submission
	// enters the table; a non-nil answer turns it away (a full queue or
	// job table).
	Refuse func() *AdmissionError
	// Admitted runs with the table locked once a submission has entered
	// the table: the daemon queues or assigns the job and persists the
	// table.
	Admitted func(*Job)
	// Unready names why the daemon cannot usefully take a submission
	// right now ("" when it can). It runs without the table lock.
	Unready func() string
	// Metrics renders the daemon's /metrics exposition.
	Metrics func() string
	// Counts receives the admission outcomes the API decides.
	Counts *Admissions
	// Role, when set, is advertised in the RoleHeader of /readyz
	// answers.
	Role string
}

// Admissions counts submission outcomes. The HA node hands one set to
// every coordinator it promotes, so the counts survive role flips.
type Admissions struct {
	Submitted, Rejected, Deduped atomic.Uint64
}

// AdmissionError is a refused submission: the HTTP status to answer
// with, the reason, and for a full queue the Retry-After base.
type AdmissionError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string { return e.Msg }

// API is the public job surface both daemons serve: submission with
// idempotent replay, polling, server-sent events, health, readiness
// and metrics, over one daemon's Table.
type API struct {
	mu    *sync.Mutex
	table *Table
	d     Daemon
}

// NewAPI serves table, which mu guards, on behalf of d.
func NewAPI(mu *sync.Mutex, table *Table, d Daemon) *API {
	return &API{mu: mu, table: table, d: d}
}

// Submit admits a job. It returns the job's view, or an
// *AdmissionError carrying the HTTP status the transport should answer
// with. A non-empty idemKey matching an earlier submission replays
// that job (deduped=true) instead of creating a twin — checked before
// the draining and full refusals, so a client retrying after an
// ambiguous success (response lost on the wire) always converges on
// the job it already created.
func (a *API) Submit(spec JobSpec, idemKey string) (view *JobView, deduped bool, err error) {
	spec.Name = trimSourceName(spec.Name)
	a.mu.Lock()
	if j := a.table.byKey[idemKey]; j != nil {
		v := j.View()
		a.mu.Unlock()
		a.d.Counts.Deduped.Add(1)
		return &v, true, nil
	}
	if verr := spec.Validate(); verr != nil {
		a.mu.Unlock()
		return nil, false, &AdmissionError{Code: http.StatusBadRequest, Msg: verr.Error()}
	}
	if ae := a.refusal(); ae != nil {
		a.mu.Unlock()
		a.d.Counts.Rejected.Add(1)
		return nil, false, ae
	}
	j := a.table.add(spec, idemKey)
	a.d.Admitted(j)
	v := j.View()
	a.mu.Unlock()
	a.d.Counts.Submitted.Add(1)
	return &v, false, nil
}

func (a *API) refusal() *AdmissionError {
	if a.d.Draining() {
		return &AdmissionError{Code: http.StatusServiceUnavailable, Msg: "draining"}
	}
	return a.d.Refuse()
}

// Job returns one job's current view.
func (a *API) Job(id string) (*JobView, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	j := a.table.Get(id)
	if j == nil {
		return nil, false
	}
	v := j.View()
	return &v, true
}

// Jobs lists every job in submission order.
func (a *API) Jobs() []JobView {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]JobView, 0, len(a.table.order))
	for _, j := range a.table.order {
		out = append(out, j.View())
	}
	return out
}

// Register mounts the public API on mux.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", a.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", a.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.handleEvents)
	mux.HandleFunc("GET /metrics", MetricsHandler(a.d.Metrics))
	mux.HandleFunc("GET /healthz", a.handleHealth)
	mux.HandleFunc("GET /readyz", a.handleReady)
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		HTTPError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	view, deduped, err := a.Submit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		var ae *AdmissionError
		if !errors.As(err, &ae) {
			HTTPError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", jitterSeconds(ae.RetryAfter)))
		}
		HTTPError(w, ae.Code, ae.Msg)
		return
	}
	if deduped {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	WriteJSON(w, http.StatusAccepted, view)
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": a.Jobs()})
}

func (a *API) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := a.Job(r.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// handleEvents streams a job's lifecycle as server-sent events until
// the job finishes or the client disconnects. A client attaching after
// completion receives the terminal event immediately.
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	j := a.table.Get(r.PathValue("id"))
	var status string
	var events *Broadcaster
	if j != nil {
		status, events = j.Status, j.Events
	}
	a.mu.Unlock()
	if j == nil {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	streamEvents(w, r, events, j.ID, status)
}

// handleHealth is pure liveness: the process is up and serving. It
// stays 200 through a drain — a draining instance is alive, just not
// accepting work; that distinction belongs to /readyz.
func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if a.d.Draining() {
		state = "draining"
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": state})
}

// handleReady is readiness: 200 only when the daemon can usefully
// accept a submission right now. Anything else is 503 with the first
// failing reason.
func (a *API) handleReady(w http.ResponseWriter, r *http.Request) {
	if a.d.Role != "" {
		w.Header().Set(RoleHeader, a.d.Role)
	}
	reason := "draining"
	if !a.d.Draining() {
		reason = a.d.Unready()
	}
	if reason != "" {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": reason})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// MetricsHandler serves the exposition text renders on each scrape.
func MetricsHandler(text func() string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, text())
	}
}

// jitterSeconds renders a Retry-After duration as whole seconds with
// random positive jitter of up to ~25% of the base: every rejected
// client backing off the literal hint would otherwise return in one
// synchronized wave and re-trip the same full queue.
func jitterSeconds(d time.Duration) int {
	base := int((d + time.Second - 1) / time.Second)
	return base + rand.Intn(2+base/4)
}

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError answers with a JSON {"error": msg} body.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
