package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// wantTrace reports whether the client asked for the per-stage span
// block in the response body (?trace=1 or an X-Trace: 1 header).
func wantTrace(r *http.Request) bool {
	if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
		return true
	}
	v := r.Header.Get("X-Trace")
	return v == "1" || v == "true"
}

// response is the JSON answer for POST /v1/predict. Rung reports which
// ladder layer produced the answer: "cnn", "dtree" or "csr". TraceID
// always carries the request's span ID (it is also the X-Trace-Id
// header); the per-stage Trace block is included when the client asks
// for it with ?trace=1. Coalesced marks an answer shared with an
// in-flight computation for the same fingerprint (a router retry or
// hedge that did not cost a second forward pass).
type response struct {
	Format          string             `json:"format"`
	Probs           map[string]float64 `json:"probs,omitempty"`
	FellBack        bool               `json:"fell_back"`
	Reason          string             `json:"reason,omitempty"`
	Cached          bool               `json:"cached"`
	Coalesced       bool               `json:"coalesced,omitempty"`
	Rung            string             `json:"rung"`
	ModelGeneration uint64             `json:"model_generation"`
	TraceID         string             `json:"trace_id,omitempty"`
	Trace           []obs.Span         `json:"trace,omitempty"`
}

// predictMeta carries per-request cluster context between the handler
// and predictOne: the router's hints in, the cache/peer outcomes back
// out (they become the X-Cache-Status and X-Peer-Fill headers).
type predictMeta struct {
	owner       string  // X-Shard-Owner hint ("" = none)
	retried     bool    // X-Retry-Attempt named a retry or hedge
	cacheStatus string  // "hit", "peer" or "miss"
	peerOutcome string  // "hit", "miss", "timeout", "error" ("" = not attempted)
	coalesced   bool    // attached to an in-flight duplicate
	clientSec   float64 // client-reported SpMV seconds (0 = none)
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

func makeResponse(p selector.Prediction, gen uint64, cached bool, rung string) response {
	r := response{
		Format:          p.Format.String(),
		FellBack:        p.FellBack,
		Cached:          cached,
		Rung:            rung,
		ModelGeneration: gen,
	}
	if p.Reason != nil {
		r.Reason = p.Reason.Error()
	}
	if p.Probs != nil {
		r.Probs = make(map[string]float64, len(p.Probs))
		for f, v := range p.Probs {
			r.Probs[f.String()] = v
		}
	}
	return r
}

// Handler returns the server's HTTP routes. It is exposed separately
// from Serve so tests (and embedders) can mount the service on any
// listener or mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/cache", s.handleCacheLookup)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	// Cluster hints from the router: which replica owns this
	// fingerprint's cache shard, and whether this request is a retry or
	// hedge of one the router already sent somewhere (retried requests
	// are labeled separately in serve_requests_total so fleet-level
	// request accounting is never double-counted by failover).
	meta := &predictMeta{
		owner:   strings.TrimSuffix(r.Header.Get("X-Shard-Owner"), "/"),
		retried: isRetryAttempt(r.Header.Get("X-Retry-Attempt")),
	}
	// Every predict request gets a trace: the span ID goes out as the
	// X-Trace-Id header (success or failure), the per-stage spans are
	// recorded along the pipeline, and the finished trace lands in the
	// /debug/traces ring on the admin listener.
	tr := obs.NewTrace()
	w.Header().Set("X-Trace-Id", tr.ID())
	defer func() {
		s.met.requestRetriable("predict", code, start, meta.retried)
		s.traces.Finish(tr, strconv.Itoa(code))
	}()

	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		writeJSON(w, code, errorResponse{Error: "POST only"})
		return
	}
	// The draining check and the inflight registration are what make
	// graceful shutdown sound: Shutdown flips draining first, then
	// waits for the inflight group, so every accepted request drains
	// and every later one gets an immediate 503.
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	if s.draining.Load() {
		code = http.StatusServiceUnavailable
		writeJSON(w, code, errorResponse{Error: "server is draining"})
		return
	}

	// The per-request deadline budget: parse, queueing and prediction
	// together must finish inside RequestTimeout, so one slow request
	// cannot occupy a worker indefinitely. A router-propagated client
	// deadline (X-Request-Deadline, unix milliseconds) tightens the
	// budget further — the replica then sheds work the client has
	// already given up on instead of computing answers into the void.
	budget := s.cfg.RequestTimeout
	if remaining, ok := headerDeadline(r); ok {
		if remaining <= 0 {
			code = http.StatusTooManyRequests
			s.met.admissionRejects.With(`reason="expired"`).Inc()
			if s.adm != nil {
				s.adm.shed()
			}
			w.Header().Set("Retry-After", s.retryAfter())
			writeJSON(w, code, errorResponse{Error: "request deadline already expired"})
			return
		}
		if remaining < budget {
			budget = remaining
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)

	parseStart := time.Now()
	body, err := s.parseBody(ctx, r)
	tr.ObserveSpan("parse", parseStart)
	if err != nil {
		code = ingestStatus(err)
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	defer body.release()
	meta.clientSec = body.clientSec

	resp, err := s.predictOne(ctx, body, meta)
	if meta.cacheStatus != "" {
		w.Header().Set("X-Cache-Status", meta.cacheStatus)
	}
	if meta.peerOutcome != "" {
		w.Header().Set("X-Peer-Fill", meta.peerOutcome)
	}
	switch {
	case err == nil:
		resp.Coalesced = meta.coalesced
		resp.TraceID = tr.ID()
		if wantTrace(r) {
			resp.Trace = tr.Spans()
		}
		writeJSON(w, code, resp)
	case errors.Is(err, errOverloaded), errors.Is(err, errDeadlineTooTight), errors.Is(err, errExpired):
		// Shed, not failed: tell the client when to come back. With the
		// overload plane on, Retry-After is derived from the observed
		// queue drain rate instead of a constant — clients back off for
		// as long as the backlog actually needs.
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, code, errorResponse{Error: err.Error()})
	case errors.Is(err, errShutdown):
		code = http.StatusServiceUnavailable
		writeJSON(w, code, errorResponse{Error: err.Error()})
	default: // client went away or request budget spent mid-wait
		code = http.StatusServiceUnavailable
		writeJSON(w, code, errorResponse{Error: err.Error()})
	}
}

// IngestStatus maps an ingestion failure onto the typed status
// taxonomy: 413 for resource-cap violations, 422 for well-formed but
// unsupported documents, 400 for everything malformed. Exported so the
// cluster router answers decode failures with the same codes a replica
// would.
func IngestStatus(err error) int {
	switch {
	case errors.Is(err, sparse.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, sparse.ErrUnsupported):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func ingestStatus(err error) int { return IngestStatus(err) }

// headerDeadline reads the router-propagated client deadline
// (X-Request-Deadline, unix milliseconds) and returns the remaining
// budget. ok is false when the header is absent or malformed — an
// unparseable deadline is ignored, never a rejection.
func headerDeadline(r *http.Request) (time.Duration, bool) {
	v := r.Header.Get("X-Request-Deadline")
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	return time.Until(time.UnixMilli(ms)), true
}

// retryAfter renders the Retry-After header for a shed response:
// drain-rate derived when the overload plane is on, the legacy constant
// otherwise.
func (s *Server) retryAfter() string {
	if s.adm != nil {
		return strconv.Itoa(s.adm.retryAfterSeconds())
	}
	return "1"
}

// admitReasonLabel classifies an admission rejection for the
// serve_admission_rejects_total counter.
func admitReasonLabel(err error) string {
	if errors.Is(err, errDeadlineTooTight) {
		return `reason="deadline"`
	}
	return `reason="queue"`
}

// isRetryAttempt reports whether an X-Retry-Attempt header value names
// a retry or hedge (attempt number >= 1; the first attempt is 0 or an
// absent header).
func isRetryAttempt(v string) bool {
	if v == "" {
		return false
	}
	n, err := strconv.Atoi(v)
	return err == nil && n >= 1
}

// DecodeMatrix decodes a request body (already read into memory) as
// JSON COO triplets (see jsonScan) or a Matrix Market document, bounded
// by lim. Every failure wraps one of the typed sparse ingestion errors
// for IngestStatus to map onto 400/413/422.
func DecodeMatrix(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*sparse.COO, error) {
	m, _, err := DecodeMatrixMeta(ctx, data, contentType, lim)
	return m, err
}

// DecodeMatrixMeta is DecodeMatrix plus the request's feedback
// metadata: the client-reported SpMV seconds (0 when absent; Matrix
// Market bodies cannot carry one). Non-finite or negative timings are
// discarded rather than rejected — the matrix, not the telemetry, is
// the request.
func DecodeMatrixMeta(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*sparse.COO, float64, error) {
	if isMatrixMarket(data, contentType) {
		m, err := decodeMatrixMarket(ctx, data, lim)
		return m, 0, err
	}
	sc, err := scanJSON(ctx, data, lim, true)
	if err != nil {
		return nil, 0, fmt.Errorf("parsing JSON body: %w", err)
	}
	defer sc.release()
	m, err := sc.matrix(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("building matrix: %w", err)
	}
	return m, sc.clientSec, nil
}

// Fingerprint returns the sparsity fingerprint of a request body:
// sparse.Fingerprint of the matrix DecodeMatrix would return, with the
// same errors. A JSON body is fingerprinted from its scanned pattern
// without building the matrix. The cluster router uses it to pick the
// shard owner.
func Fingerprint(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (uint64, error) {
	b, err := scanBody(ctx, data, contentType, lim)
	if err != nil {
		return 0, err
	}
	b.release()
	return b.fp, nil
}

func isMatrixMarket(data []byte, contentType string) bool {
	return strings.Contains(contentType, "matrix-market") || bytes.HasPrefix(bytes.TrimSpace(data), []byte("%%MatrixMarket"))
}

func decodeMatrixMarket(ctx context.Context, data []byte, lim sparse.Limits) (*sparse.COO, error) {
	m, err := sparse.ReadMatrixMarketLimits(ctx, bytes.NewReader(data), lim)
	if err != nil {
		return nil, fmt.Errorf("parsing Matrix Market body: %w", err)
	}
	return m, nil
}

// predictBody is one validated predict request: its fingerprint, the
// client's SpMV timing, and the matrix, which a JSON body builds only
// when asked (a cache hit never needs it). The matrix is the body's
// canonical pattern with every value 1: no served answer reads values.
type predictBody struct {
	fp        uint64
	clientSec float64
	m         *sparse.COO // built; Matrix Market bodies parse straight into it
	scan      *jsonScan   // a JSON body's scan until its matrix is built
}

// scanBody validates and fingerprints a request body.
func scanBody(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*predictBody, error) {
	if isMatrixMarket(data, contentType) {
		m, err := decodeMatrixMarket(ctx, data, lim)
		if err != nil {
			return nil, err
		}
		for i := range m.Vals {
			m.Vals[i] = 1 // the served pattern, as for a JSON body
		}
		return &predictBody{fp: sparse.Fingerprint(m), m: m}, nil
	}
	sc, err := scanJSON(ctx, data, lim, false)
	if err != nil {
		return nil, fmt.Errorf("parsing JSON body: %w", err)
	}
	fp, err := sc.fingerprint(ctx)
	if err != nil {
		sc.release()
		return nil, fmt.Errorf("parsing JSON body: %w", err)
	}
	return &predictBody{fp: fp, clientSec: sc.clientSec, scan: sc}, nil
}

// matrix returns the body's matrix, building it on first use.
func (b *predictBody) matrix(ctx context.Context) (*sparse.COO, error) {
	if b.m == nil {
		m, err := b.scan.matrix(ctx)
		if err != nil {
			return nil, fmt.Errorf("building matrix: %w", err)
		}
		b.m = m
		b.release()
	}
	return b.m, nil
}

// release returns a JSON body's scan buffers; the fingerprint and a
// built matrix stay valid.
func (b *predictBody) release() {
	if b.scan != nil {
		b.scan.release()
		b.scan = nil
	}
}

// parseBody reads, validates and fingerprints the request body,
// bounded by MaxBodyBytes and cfg.Limits.
func (s *Server) parseBody(ctx context.Context, r *http.Request) (*predictBody, error) {
	data, err := ReadBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	return scanBody(ctx, data, r.Header.Get("Content-Type"), s.cfg.Limits)
}

// bodyPrealloc caps the buffer ReadBody allocates for a declared
// Content-Length before any of the body has arrived. It covers a
// 2048-row predict body (about 450 KB) in one allocation, while a
// request that declares a large body and sends nothing pins at most
// this much.
const bodyPrealloc = 1 << 20

// ReadBody reads a request body of at most limit bytes. A body with a
// declared Content-Length is read into one buffer of exactly that size
// when it fits in bodyPrealloc; a larger one starts at bodyPrealloc and
// doubles, never past the declared length, only as its bytes arrive. A
// body without a declared length (chunked) is read as it comes. A body
// over limit is a sparse.ErrTooLarge error (IngestStatus 413), and one
// shorter than its declared length a read error (400).
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	tooLarge := fmt.Errorf("%w: body exceeds %d bytes", sparse.ErrTooLarge, limit)
	want := r.ContentLength
	if want > limit {
		return nil, tooLarge
	}
	if want < 0 {
		data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
		if err != nil {
			return nil, fmt.Errorf("reading body: %w", err)
		}
		if int64(len(data)) > limit {
			return nil, tooLarge
		}
		return data, nil
	}
	data := make([]byte, min(want, bodyPrealloc))
	for read := 0; ; {
		n, err := io.ReadFull(r.Body, data[read:])
		read += n
		if err != nil {
			return nil, fmt.Errorf("reading body: %d of %d bytes: %w", read, want, err)
		}
		if int64(read) == want {
			return data, nil
		}
		grown := make([]byte, min(want, 2*int64(read)))
		copy(grown, data)
		data = grown
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
	s.met.request("healthz", http.StatusOK, start)
}

// handleReadyz reports readiness with degradation detail: a healthy
// replica answers "ready rung=cnn", one running on the decision-tree
// rung behind an open breaker answers 200 "ready rung=dtree" (degraded
// but still worth routing to), and a replica that is draining, has no
// model, or is down to the CSR floor answers 503. The router's active
// prober parses the rung to distinguish healthy from degraded replicas
// without taking them out of rotation.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	var msg string
	rung := s.CurrentRung()
	switch {
	case !s.Ready():
		code = http.StatusServiceUnavailable
		msg = "not ready\n"
	case rung == rungCSR:
		// Hard-down: breaker open and no tree rung — answers would be
		// the unconditional CSR floor, no better than any other
		// replica's worst case. Shed active routing.
		code = http.StatusServiceUnavailable
		msg = "degraded rung=csr\n"
	default:
		msg = "ready rung=" + rung + "\n"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, msg)
	s.met.request("readyz", code, start)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WriteTo(w)
	s.met.request("metrics", http.StatusOK, start)
}

// formatLabel renders the label set for a served prediction.
func formatLabel(f sparse.Format) string {
	return fmt.Sprintf("format=%q", f.String())
}

// reasonLabel classifies a fallback cause into a bounded label set
// (unbounded label values are a Prometheus cardinality hazard).
func reasonLabel(err error) string {
	switch {
	case errors.Is(err, selector.ErrNoModel):
		return `reason="no_model"`
	case errors.Is(err, selector.ErrBadInput):
		return `reason="bad_input"`
	case errors.Is(err, selector.ErrBadOutput):
		return `reason="bad_output"`
	default:
		return `reason="other"`
	}
}
