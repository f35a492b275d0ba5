package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"subgraph/internal/graph"
	"subgraph/internal/obs"
)

// APIError is a client-visible error with its HTTP status. The cluster
// router answers rejections with the same values a worker does.
type APIError struct {
	Status int
	Msg    string
}

func badRequest(msg string) *APIError { return &APIError{Status: http.StatusBadRequest, Msg: msg} }

// Write answers the request with the error.
func (e *APIError) Write(w http.ResponseWriter) { WriteErr(w, e.Status, "%s", e.Msg) }

// UploadView is the wire response of a graph upload.
type UploadView struct {
	GraphInfo
	// Deduped marks an upload whose content was already stored.
	Deduped bool `json:"deduped,omitempty"`
}

// HealthView is the wire response of /healthz. Role/Node/Shards are the
// cluster-facing fields: a router's health prober keys routing decisions
// off them, and a draining node keeps reporting them under its 503 so
// the prober can tell "draining" from "dead".
type HealthView struct {
	Status string `json:"status"` // "ok" | "draining"
	// Role is "worker" (a serve.Server) or "router" (a cluster router).
	Role string `json:"role,omitempty"`
	// Node is the configured node name; empty on unnamed single nodes.
	Node string `json:"node,omitempty"`
	// Shards counts owned graph digests: stored graphs on a worker,
	// routable digests on a router.
	Shards   int  `json:"shards"`
	Draining bool `json:"draining,omitempty"`
}

// MetricsView is the wire response of /metrics: server-level gauges plus
// the full obs registry snapshot.
type MetricsView struct {
	UptimeMs     int64                `json:"uptime_ms"`
	Workers      int                  `json:"workers"`
	QueueDepth   int                  `json:"queue_depth"`
	QueueCap     int                  `json:"queue_cap"`
	Draining     bool                 `json:"draining"`
	Graphs       int                  `json:"graphs"`
	CacheEntries int                  `json:"cache_entries"`
	Metrics      obs.RegistrySnapshot `json:"metrics"`
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/graphs", s.handleGraphUpload)
	mux.HandleFunc("POST /v1/graphs/{digest}/delta", s.handleGraphDelta)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	HandleReads(mux, s.store, s.flight, s.cfg.FlightRecorderSize, &SLOGuard{g: s.slo})
	return mux
}

// HandleReads registers the endpoints that only read node-local state:
// the graph list, info and edge-list download over store, and
// /debug/jobs, /debug/jobs/{id} and /debug/slo over the flight recorder
// (nil when disabled; it holds the last flightSize timelines) and the SLO
// guard. Workers and the cluster router both serve them through here.
func HandleReads(mux *http.ServeMux, store *Store, flight *obs.FlightRecorder, flightSize int, slo *SLOGuard) {
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"graphs": store.List()})
	})
	mux.HandleFunc("GET /v1/graphs/{digest}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := store.Info(r.PathValue("digest"))
		if !ok {
			WriteErr(w, http.StatusNotFound, "unknown graph digest %q", r.PathValue("digest"))
			return
		}
		WriteJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/graphs/{digest}/edgelist", func(w http.ResponseWriter, r *http.Request) {
		g, ok := store.Get(r.PathValue("digest"))
		if !ok {
			WriteErr(w, http.StatusNotFound, "unknown graph digest %q", r.PathValue("digest"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = graph.WriteEdgeList(w, g)
	})
	mux.HandleFunc("GET /debug/jobs", func(w http.ResponseWriter, r *http.Request) {
		views := flight.Snapshot() // nil-safe: empty when recording disabled
		if views == nil {
			views = []*obs.TimelineView{}
		}
		WriteJSON(w, http.StatusOK, DebugJobsView{Count: len(views), Timelines: views})
	})
	mux.HandleFunc("GET /debug/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if flight == nil {
			WriteErr(w, http.StatusNotFound, "flight recorder disabled")
			return
		}
		v := flight.Find(id)
		if v == nil {
			WriteErr(w, http.StatusNotFound,
				"no recorded timeline for %q (job or trace ID; the recorder holds the last %d)",
				id, flightSize)
			return
		}
		WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /debug/slo", func(w http.ResponseWriter, r *http.Request) {
		trs := slo.Transitions()
		if trs == nil {
			trs = []SLOTransition{}
		}
		WriteJSON(w, http.StatusOK, DebugSLOView{Level: SLOLevelName(slo.Level()), Transitions: trs})
	})
}

// TraceIDHeader carries a job's trace ID end to end: clients may set it
// on POST /v1/jobs (invalid values are replaced, never stored), and the
// server echoes the effective ID on every submit response.
const TraceIDHeader = "X-Trace-Id"

// ForwardedByHeader names the cluster router that forwarded a job to
// this worker. The worker annotates its root job span with the value, so
// a forwarded job's /debug/jobs timeline says which hop dispatched it —
// the router's own spans chain onto the same X-Trace-Id.
const ForwardedByHeader = "X-Forwarded-By"

// WriteJSON emits compact JSON: an indenting encoder would reformat the
// json.RawMessage Stats inside job results and break the documented
// byte-identity with library-side json.Marshal(Stats).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteErr answers with the JSON error envelope {"error": "..."}.
func WriteErr(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteHealth answers /healthz with v: 200 "ok", or 503 "draining" — the
// 503 tells orchestrators (and the cluster router's prober) to stop
// routing, and its body tells "draining" from "dead".
func WriteHealth(w http.ResponseWriter, v HealthView, draining bool) {
	if draining {
		v.Status, v.Draining = "draining", true
		WriteJSON(w, http.StatusServiceUnavailable, v)
		return
	}
	v.Status = "ok"
	WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteHealth(w, HealthView{Role: "worker", Node: s.cfg.NodeName, Shards: s.store.Len()}, s.Draining())
}

// WritePrometheus answers /metrics?format=prom with reg's exposition
// page, labeling every sample node="<node>" when node is set.
func WritePrometheus(w http.ResponseWriter, reg *obs.Registry, node string) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var labels map[string]string
	if node != "" {
		labels = map[string]string{"node": node}
	}
	_ = obs.WritePrometheusLabeled(w, reg.Snapshot(), labels)
}

// refreshServerGauges pushes the envelope state (workers, queue, stores,
// uptime) into the registry so a Prometheus scrape carries what the JSON
// view reports in its envelope fields.
func (s *Server) refreshServerGauges() {
	s.reg.Gauge(GaugeWorkers).Set(float64(s.cfg.Workers))
	s.reg.Gauge(GaugeQueueCap).Set(float64(s.cfg.QueueDepth))
	s.reg.Gauge(GaugeQueueDepth).Set(float64(len(s.queue)))
	s.reg.Gauge(GaugeGraphsStored).Set(float64(s.store.Len()))
	s.reg.Gauge(GaugeCacheEntries).Set(float64(s.cache.Len()))
	var draining float64
	if s.Draining() {
		draining = 1
	}
	s.reg.Gauge(GaugeDraining).Set(draining)
	s.reg.Gauge(GaugeUptime).Set(time.Since(s.start).Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshServerGauges()
	if r.URL.Query().Get("format") == "prom" {
		WritePrometheus(w, s.reg, s.cfg.NodeName)
		return
	}
	WriteJSON(w, http.StatusOK, MetricsView{
		UptimeMs:     time.Since(s.start).Milliseconds(),
		Workers:      s.cfg.Workers,
		QueueDepth:   len(s.queue),
		QueueCap:     s.cfg.QueueDepth,
		Draining:     s.Draining(),
		Graphs:       s.store.Len(),
		CacheEntries: s.cache.Len(),
		Metrics:      s.reg.Snapshot(),
	})
}

// ParseEdgeList parses untrusted edge-list text under limits, mapping
// parse errors to 400 and limit errors to 413.
func ParseEdgeList(text string, limits graph.Limits) (*graph.Graph, *APIError) {
	g, err := graph.ReadEdgeListLimits(strings.NewReader(text), limits)
	if err != nil {
		var le *graph.LimitError
		if errors.As(err, &le) {
			return nil, &APIError{Status: http.StatusRequestEntityTooLarge, Msg: le.Error()}
		}
		return nil, badRequest(err.Error())
	}
	return g, nil
}

// ReadUpload reads an edge-list upload body of at most maxBytes (413
// beyond) and parses it under limits.
func ReadUpload(w http.ResponseWriter, r *http.Request, maxBytes int64, limits graph.Limits) (*graph.Graph, *APIError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		return nil, &APIError{Status: http.StatusRequestEntityTooLarge, Msg: fmt.Sprintf("reading upload: %v", err)}
	}
	return ParseEdgeList(string(body), limits)
}

// WriteUpload answers an upload stored under digest: 201 with its info,
// or 200 marked deduped when the content was already stored.
func WriteUpload(w http.ResponseWriter, store *Store, digest string, deduped bool) {
	info, _ := store.Info(digest)
	status := http.StatusCreated
	if deduped {
		status = http.StatusOK
	}
	WriteJSON(w, status, UploadView{GraphInfo: info, Deduped: deduped})
}

func (s *Server) countUpload(deduped bool) {
	s.reg.Counter(MetricGraphUploads).Inc()
	if deduped {
		s.reg.Counter(MetricGraphDedups).Inc()
	}
}

func (s *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	g, aerr := ReadUpload(w, r, s.cfg.MaxUploadBytes, s.cfg.GraphLimits)
	if aerr != nil {
		aerr.Write(w)
		return
	}
	digest, deduped := s.store.Put(g)
	s.countUpload(deduped)
	WriteUpload(w, s.store, digest, deduped)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// Trace identity first: propagate the client's X-Trace-Id (replacing
	// anything that fails validation) and echo the effective ID on every
	// response, accepted or bounced, so a client can always correlate.
	traceID := r.Header.Get(TraceIDHeader)
	if !obs.ValidTraceID(traceID) {
		traceID = obs.NewTraceID()
	}
	tl := obs.NewTimeline(traceID)
	w.Header().Set(TraceIDHeader, tl.TraceID())
	root := tl.StartSpan("job")
	if fwd := r.Header.Get(ForwardedByHeader); fwd != "" {
		root.Annotate("forwarded_by", fwd)
	}

	if s.Draining() {
		s.reg.Counter(MetricJobsDraining).Inc()
		WriteErr(w, http.StatusServiceUnavailable, "server is draining; submit elsewhere")
		return
	}
	// Admission covers decode + validation + store lookups — everything
	// between arrival and the cache decision.
	admission := root.StartChild("admission")
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteErr(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	s.reg.Counter(MetricJobsSubmitted).Inc()
	j, aerr := s.prepare(spec)
	if aerr != nil {
		aerr.Write(w)
		return
	}
	j.tl, j.rootSpan = tl, root
	admission.Finish()

	// Cache lookup — traced jobs bypass it (their trace documents a real
	// execution).
	if !j.trace {
		lookup := root.StartChild("cache_lookup")
		if res, ok := s.cache.Get(j.key); ok {
			lookup.Annotate("result", "hit")
			lookup.Finish()
			s.reg.Counter(MetricCacheHits).Inc()
			j.mu.Lock()
			j.state = StateDone
			j.cached = true
			j.result = res
			j.mu.Unlock()
			close(j.finished)
			s.register(j)
			root.Finish()
			j.mu.Lock()
			j.latencyNs = root.DurationNs()
			j.mu.Unlock()
			s.reg.Histogram(HistCacheHitNs, JobWallBuckets).
				Observe(float64(j.latencyNs))
			s.publishTimeline(j, StateDone)
			s.releaseJobPin(j)
			WriteJSON(w, http.StatusOK, j.view())
			return
		}
		lookup.Annotate("result", "miss")
		lookup.Finish()
		s.reg.Counter(MetricCacheMisses).Inc()
	}

	// SLO load shedding: under degradation, below-threshold priorities are
	// bounced before they can occupy queue or workers. Count jobs are the
	// exception — the PR 6 follow-up: instead of shedding them, the guard
	// lets them through to batch-coalesce into shared kernel passes, whose
	// marginal cost under pressure is near zero (one pass per digest).
	if s.slo.shouldShed(spec.Priority) {
		if j.count {
			s.reg.Counter(MetricJobsPressureBatched).Inc()
			root.Annotate("slo", "batch_coalesced")
		} else {
			s.reg.Counter(MetricJobsShed).Inc()
			root.Annotate("outcome", "shed")
			root.Finish()
			s.publishTimeline(j, "shed")
			s.releaseJobPin(j)
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
			WriteErr(w, http.StatusTooManyRequests,
				"shedding %s-priority load: p99 over budget; retry later", DisplayPriority(spec.Priority))
			return
		}
	}

	// Register before enqueue: a worker may pick the job up (and even
	// finish it) the instant it lands in the queue, and it must already be
	// pollable by ID at that point. Rejected jobs are unregistered.
	if existing := s.register(j); existing != nil {
		// An identical spec is already queued or running — answer with
		// that job instead of executing twice (idempotent retry path).
		root.Annotate("coalesced_onto", existing.id)
		root.Finish()
		s.publishTimeline(j, "coalesced")
		s.releaseJobPin(j)
		w.Header().Set("Location", "/v1/jobs/"+existing.id)
		WriteJSON(w, http.StatusAccepted, existing.view())
		return
	}
	// The queue-wait span opens here and is finished by the worker that
	// dequeues the job (serve.go); the job is not yet visible to workers,
	// so the field write is unsynchronized-safe.
	j.queueSpan = root.StartChild("queue_wait")
	queued, draining := s.enqueue(j)
	if queued && j.count {
		// Index the admitted count job for digest-level batching. Safe
		// after enqueue: if a worker already claimed it, add is a no-op.
		s.batchAdd(j)
	}
	switch {
	case draining:
		s.unregister(j)
		s.releaseJobPin(j)
		s.reg.Counter(MetricJobsDraining).Inc()
		WriteErr(w, http.StatusServiceUnavailable, "server is draining; submit elsewhere")
		return
	case !queued:
		s.unregister(j)
		s.releaseJobPin(j)
		s.reg.Counter(MetricJobsRejected).Inc()
		root.Annotate("outcome", "rejected")
		root.Finish()
		s.publishTimeline(j, "rejected")
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		WriteErr(w, http.StatusTooManyRequests,
			"queue saturated (%d jobs); retry later", s.cfg.QueueDepth)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	WriteJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		WriteErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		WriteErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	trace := j.traceBytes
	trunc := j.traceTrunc
	state := j.state
	j.mu.Unlock()
	if len(trace) == 0 {
		WriteErr(w, http.StatusNotFound, "job %s has no trace (state %s; submit with \"trace\": true)",
			j.id, state)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if trunc {
		w.Header().Set("X-Trace-Truncated", "true")
	}
	_, _ = w.Write(trace)
}

// DebugJobsView is the wire response of GET /debug/jobs: the flight
// recorder's held timelines, newest first.
type DebugJobsView struct {
	Count     int                 `json:"count"`
	Timelines []*obs.TimelineView `json:"timelines"`
}

// DebugSLOView is the wire response of GET /debug/slo.
type DebugSLOView struct {
	Level       string          `json:"level"`
	Transitions []SLOTransition `json:"transitions"`
}
