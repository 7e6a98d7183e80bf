// Package serve is the pipeline-as-a-service layer: a multi-tenant
// HTTP/JSON front end over the CycleSQL feedback loop. Each tenant is
// one benchmark database; a request pins the tenant's copy-on-write
// snapshot (O(tables), see internal/storage), runs the loop on a warm
// per-tenant pipeline, and answers with the verified translation.
//
// Endpoints:
//
//	POST /v1/{tenant}/translate  — run the feedback loop on a question
//	GET  /healthz                — liveness probe
//	GET  /metrics                — JSON counters (see MetricsView)
//
// Admission control is two-stage: up to MaxInflight requests execute
// concurrently, up to MaxQueue more wait for a slot, and everything past
// that is shed immediately with 429 and a Retry-After header — the
// server stays responsive under overload instead of queueing without
// bound. Request deadlines ride the context: the per-request budget
// (Timeout, optionally shortened per request) cancels in-flight loop
// work, and a client disconnect does the same through the request
// context, so abandoned work stops consuming slots.
//
// Configuration comes from the same cliconf surface the CLIs use, so a
// flag that tunes the batch harness tunes the server identically.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
)

// Config assembles a Server. Bench and Verifier are required; zero
// values elsewhere pick the documented defaults.
type Config struct {
	// Bench supplies the tenants: every database becomes one tenant,
	// addressable as /v1/{name}/..., with the dev split as its question
	// book (the simulated models translate benchmark questions).
	Bench *datasets.Benchmark
	// Verifier is shared across all tenants and pipelines; wrap it in
	// nli.Latency to simulate inference cost.
	Verifier nli.Verifier
	// Limits carries parallelism, resilience and chaos exactly as the
	// CLIs configure them (cliconf.Build().Limits).
	Limits experiments.Limits
	// DefaultModel answers requests that name no model (default
	// "resdsql-3b"); Beam is the default beam size (default 8).
	DefaultModel string
	Beam         int
	// MaxInflight bounds concurrently executing translations (default 8);
	// MaxQueue bounds requests waiting for a slot (default 2*MaxInflight).
	// Beyond both, requests are shed with 429.
	MaxInflight int
	MaxQueue    int
	// Timeout is the per-request wall-clock budget (default 30s). A
	// request's timeout_ms can shorten it, never extend it.
	Timeout time.Duration
}

// Server routes tenants, admits requests and runs the loop. Create with
// New; serve via Handler.
type Server struct {
	cfg Config
	//vetcycle:allow boundedcache -- populated once in New, read-only afterwards; per-tenant mutable state lives behind tenant's own mutexes
	tenants map[string]*tenant
	slots   chan struct{}
	queue   chan struct{}
	metrics Metrics
	mux     *http.ServeMux
}

// New builds a Server over the benchmark's databases. Defaults: model
// resdsql-3b, beam 8, 8 in-flight, 16 queued, 30s budget.
func New(cfg Config) *Server {
	if cfg.DefaultModel == "" {
		cfg.DefaultModel = "resdsql-3b"
	}
	if cfg.Beam <= 0 {
		cfg.Beam = 8
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 2 * cfg.MaxInflight
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant, len(cfg.Bench.Databases)),
		slots:   make(chan struct{}, cfg.MaxInflight),
		queue:   make(chan struct{}, cfg.MaxQueue),
		mux:     http.NewServeMux(),
	}
	s.metrics.start = time.Now()
	for name, db := range cfg.Bench.Databases {
		s.tenants[name] = newTenant(name, db, cfg.Bench.Dev)
	}
	s.mux.HandleFunc("POST /v1/{tenant}/translate", s.handleTranslate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// TranslateRequest is the POST /v1/{tenant}/translate body.
type TranslateRequest struct {
	// Question must be one of the tenant's benchmark questions (the
	// simulated models translate the benchmark).
	Question string `json:"question"`
	// Model optionally overrides the server's default model.
	Model string `json:"model,omitempty"`
	// Beam optionally overrides the server's default beam size.
	Beam int `json:"beam,omitempty"`
	// TimeoutMillis optionally shortens the server's request budget.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Explain requests the EXPLAIN plan tree of the final SQL — the access
	// paths and join strategies the cost-based planner chose against this
	// request's snapshot, with estimated and actual row counts per operator.
	Explain bool `json:"explain,omitempty"`
}

// TranslateResponse is the success body: the loop's verdict plus the
// snapshot epoch the request executed against.
type TranslateResponse struct {
	Tenant         string `json:"tenant"`
	Model          string `json:"model"`
	SQL            string `json:"sql"`
	Verified       bool   `json:"verified"`
	Degraded       bool   `json:"degraded,omitempty"`
	Iterations     int    `json:"iterations"`
	Retries        int    `json:"retries,omitempty"`
	Candidates     int    `json:"candidates"`
	SnapshotEpoch  uint64 `json:"snapshot_epoch"`
	OverheadMicros int64  `json:"overhead_us"`
	// Plan is the rendered EXPLAIN plan tree of the final SQL, present only
	// when the request set "explain": true and the final SQL re-planned
	// cleanly (plan failures never fail a translation that succeeded).
	Plan string `json:"plan,omitempty"`
}

// ErrorResponse is the envelope every non-2xx response carries.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure: a stable machine-readable code and a
// human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stable error codes.
const (
	CodeBadRequest    = "bad_request"
	CodeUnknownTenant = "unknown_tenant"
	CodeOverloaded    = "overloaded"
	CodeDeadline      = "deadline_exceeded"
	CodeInternal      = "internal"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a failed write means the client is gone
}

func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	switch code {
	case CodeBadRequest:
		s.metrics.badRequest.Add(1)
	case CodeUnknownTenant:
		s.metrics.unknownTenant.Add(1)
	case CodeOverloaded:
		s.metrics.shed.Add(1)
	case CodeDeadline:
		s.metrics.deadline.Add(1)
	case CodeInternal:
		s.metrics.internal.Add(1)
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"tenants":   len(s.tenants),
		"uptime_ms": time.Since(s.metrics.start).Milliseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.view(s.cfg.Limits.Resilience.Stats()))
}

// admit acquires an execution slot, waiting in the bounded queue if the
// slot pool is full. It returns a release func on success, or a nil
// release with shed=true when both the pool and the queue are full. A
// context cancelled while queued returns (nil, false) — the caller maps
// ctx.Err() to 504 or a silent disconnect.
func (s *Server) admit(ctx context.Context) (release func(), shed bool) {
	grant := func() func() {
		s.metrics.inflight.Add(1)
		return func() {
			s.metrics.inflight.Add(-1)
			<-s.slots
		}
	}
	select {
	case s.slots <- struct{}{}:
		return grant(), false
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, true
	}
	s.metrics.queued.Add(1)
	defer func() {
		s.metrics.queued.Add(-1)
		<-s.queue
	}()
	select {
	case s.slots <- struct{}{}:
		return grant(), false
	case <-ctx.Done():
		return nil, false
	}
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	s.metrics.total.Add(1)
	t, ok := s.tenants[r.PathValue("tenant")]
	if !ok {
		s.fail(w, http.StatusNotFound, CodeUnknownTenant,
			fmt.Sprintf("unknown tenant %q", r.PathValue("tenant")))
		return
	}
	var req TranslateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "invalid request body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, "question is required")
		return
	}
	modelName := req.Model
	if modelName == "" {
		modelName = s.cfg.DefaultModel
	}
	if _, err := nl2sql.ByName(modelName); err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("unknown model %q (available: %s)", modelName, strings.Join(nl2sql.ModelNames(), ", ")))
		return
	}
	beam := req.Beam
	if beam <= 0 {
		beam = s.cfg.Beam
	}
	ex := t.example(req.Question)
	if ex == nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("question is not in tenant %s's benchmark book", t.name))
		return
	}

	// The request budget starts before queueing: a request that waits out
	// its whole budget in the queue answers 504 instead of occupying a
	// slot it can no longer use.
	budget := s.cfg.Timeout
	if req.TimeoutMillis > 0 {
		if d := time.Duration(req.TimeoutMillis) * time.Millisecond; d < budget {
			budget = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	release, shed := s.admit(ctx)
	if shed {
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("server at capacity (%d in flight, %d queued); retry later",
				s.cfg.MaxInflight, s.cfg.MaxQueue))
		return
	}
	if release == nil { // cancelled while queued
		s.finishCancelled(ctx, w)
		return
	}
	defer release()

	start := time.Now()
	snap := t.snapshot(&s.metrics)
	pipeline, err := t.pipeline(s, modelName, beam)
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	res, err := pipeline.Translate(ctx, *ex, snap.DB())
	s.metrics.observe(time.Since(start))
	if err != nil {
		if ctx.Err() != nil {
			s.finishCancelled(ctx, w)
			return
		}
		s.metrics.internal.Add(1)
		writeJSON(w, http.StatusInternalServerError,
			ErrorResponse{Error: ErrorDetail{Code: CodeInternal, Message: err.Error()}})
		return
	}
	s.metrics.ok.Add(1)
	writeJSON(w, http.StatusOK, TranslateResponse{
		Tenant:         t.name,
		Model:          modelName,
		SQL:            res.FinalSQL,
		Verified:       res.Verified,
		Degraded:       res.Degraded,
		Iterations:     res.Iterations,
		Retries:        res.Retries,
		Candidates:     len(res.Candidates),
		SnapshotEpoch:  snap.Epoch(),
		OverheadMicros: res.Overhead.Microseconds(),
		Plan:           explainPlan(ctx, req, res.FinalSQL, pipeline.Executor(snap.DB())),
	})
}

// explainPlan renders the final SQL's plan on exec when the request asked
// for it. exec is the warm executor the request's pipeline ran the loop
// on for the pinned snapshot, so the final SQL's plan and the indexes it
// probes are usually built already. Best-effort on purpose: a
// translation that verified must not turn into an error because its plan
// could not be rendered, so any failure here just omits the field.
func explainPlan(ctx context.Context, req TranslateRequest, finalSQL string, exec *sqleval.Executor) string {
	if !req.Explain || finalSQL == "" {
		return ""
	}
	stmt, err := sqlparse.Parse(finalSQL)
	if err != nil {
		return ""
	}
	plan, err := exec.ExplainPlan(ctx, stmt)
	if err != nil {
		return ""
	}
	return plan
}

// finishCancelled maps a dead request context to its terminal response:
// 504 when the budget expired, a silent count when the client went away
// (there is nobody left to read a body).
func (s *Server) finishCancelled(ctx context.Context, w http.ResponseWriter) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.fail(w, http.StatusGatewayTimeout, CodeDeadline, "request budget exhausted")
		return
	}
	s.metrics.canceled.Add(1)
}
