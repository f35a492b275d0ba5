package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// cjob is the router-side job record. The router owns the job's public
// identity (c-%06d) and terminal view; which worker executes it — and
// whether it had to be re-dispatched — is an implementation detail the
// client never renegotiates.
type cjob struct {
	id      string
	key     string // serve.CheckedSpec.Key — the cluster-shared cache identity
	spec    serve.JobSpec
	trace   bool
	created time.Time
	tl      *obs.Timeline
	root    *obs.Span

	// resMu single-flights resolution: concurrent polls of one job must
	// not race a redispatch or double-finalize. Held across worker I/O —
	// acceptable because only this job's pollers contend on it.
	resMu sync.Mutex

	mu           sync.Mutex
	node         string // base URL of the worker holding the job
	workerID     string // the worker's job ID for it
	redispatched bool
	admitted     bool // counted in Router.inflight (false for cache hits)
	lastState    string
	terminalV    *serve.JobView
}

func (c *cjob) terminalView() *serve.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.terminalV
}

func (c *cjob) assignment() (node, workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node, c.workerID
}

// skeletonView is the job's view before any worker state is known.
func (c *cjob) skeletonView() serve.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	state := c.lastState
	if state == "" {
		state = serve.StateQueued
	}
	return serve.JobView{
		ID:       c.id,
		State:    state,
		Graph:    c.spec.Graph,
		Pattern:  c.spec.Pattern,
		Options:  c.spec.Options,
		Mode:     c.spec.Mode,
		Priority: c.spec.Priority,
		TraceID:  c.tl.TraceID(),
	}
}

// translate rebrands a worker view as this cluster job: router ID, and
// the executing node named so operators can find the hop.
func (c *cjob) translate(v serve.JobView, node string) serve.JobView {
	v.ID = c.id
	v.Node = node
	v.TraceID = c.tl.TraceID()
	return v
}

// register assigns an ID and records the job, evicting the oldest
// terminal jobs beyond the retention bound.
func (r *Router) register(cj *cjob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	cj.id = fmt.Sprintf("c-%06d", r.seq)
	r.jobs[cj.id] = cj
	r.order = append(r.order, cj.id)
	for len(r.jobs) > r.cfg.MaxRetainedJobs {
		evicted := false
		for i, id := range r.order {
			old := r.jobs[id]
			if old == nil || old.terminalView() != nil {
				delete(r.jobs, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live: retention is a soft bound
		}
	}
}

// unadmit rolls back a job the cluster could not place (every owner
// bounced it): the slot is released and the record dropped, so the 429
// leaves no residue.
func (r *Router) unadmit(cj *cjob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.jobs, cj.id)
	for i, id := range r.order {
		if id == cj.id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	if cj.admitted {
		cj.admitted = false
		r.inflight--
		r.reg.Gauge(GaugeInflight).Set(float64(r.inflight))
	}
}

// admit claims one cluster in-flight slot.
func (r *Router) admit(cj *cjob) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight >= r.cfg.MaxInflight {
		return false
	}
	r.inflight++
	cj.admitted = true
	r.reg.Gauge(GaugeInflight).Set(float64(r.inflight))
	return true
}

func (r *Router) jobByID(id string) *cjob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// Draining reports whether BeginDrain has been called.
func (r *Router) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// BeginDrain flips the router into draining mode: new submissions are
// answered 503 while already-admitted jobs keep resolving. Idempotent.
func (r *Router) BeginDrain() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.draining {
		r.draining = true
		r.logger.Info("router drain begun", "inflight", r.inflight)
	}
}

// Drain begins draining and actively resolves every admitted job until
// all are terminal or ctx expires — polls keep flowing to workers, so a
// worker crash mid-drain is detected and the job re-dispatched even
// with no client polling it.
func (r *Router) Drain(ctx context.Context) error {
	r.BeginDrain()
	r.Stop()
	for {
		pending := r.pendingJobs()
		if len(pending) == 0 {
			// Deltas have been refused since BeginDrain; the recount pool
			// can park permanently.
			r.krn.Close()
			r.logger.Info("router drain complete",
				"jobs_completed", r.reg.Counter(MetricJobsCompleted).Value())
			return nil
		}
		for _, cj := range pending {
			if ctx.Err() != nil {
				return fmt.Errorf("cluster: drain interrupted: %w", context.Cause(ctx))
			}
			r.resolve(cj)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: drain interrupted: %w", context.Cause(ctx))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (r *Router) pendingJobs() []*cjob {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*cjob, 0, r.inflight)
	for _, cj := range r.jobs {
		if cj.terminalView() == nil {
			out = append(out, cj)
		}
	}
	return out
}

func (r *Router) publishTimeline(cj *cjob, outcome string) {
	if r.flight == nil || cj.tl == nil {
		return
	}
	v := cj.tl.View()
	v.JobID = cj.id
	v.Outcome = outcome
	r.flight.Record(v)
}

// ---- submit ------------------------------------------------------------

func (r *Router) handleJobSubmit(w http.ResponseWriter, req *http.Request) {
	traceID := req.Header.Get(serve.TraceIDHeader)
	if !obs.ValidTraceID(traceID) {
		traceID = obs.NewTraceID()
	}
	w.Header().Set(serve.TraceIDHeader, traceID)

	if r.Draining() {
		r.reg.Counter(MetricJobsDraining).Inc()
		serve.WriteErr(w, http.StatusServiceUnavailable, "cluster is draining; submit elsewhere")
		return
	}
	var spec serve.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, r.cfg.MaxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		serve.WriteErr(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	r.reg.Counter(MetricJobsSubmitted).Inc()

	tl := obs.NewTimeline(traceID)
	root := tl.StartSpan("cluster_job")
	admission := root.StartChild("admission")

	// The worker's own spec check, before the mirror or the cache is
	// touched: a spec every worker refuses is refused here with the same
	// status and message, and stores no graph.
	chk, aerr := serve.CheckSpec(spec)
	if aerr != nil {
		aerr.Write(w)
		return
	}
	// Inline graphs land in the router mirror first, then travel to
	// workers by digest — the push machinery dedupes, so a thousand jobs
	// inlining the same topology ship it to each owner once.
	if spec.GraphInline != "" {
		g, aerr := serve.ParseEdgeList(spec.GraphInline, r.cfg.GraphLimits)
		if aerr != nil {
			aerr.Write(w)
			return
		}
		digest, _ := r.store.Put(g)
		r.reg.Counter(MetricGraphUploads).Inc()
		spec.Graph, spec.GraphInline = digest, ""
	}
	key := chk.Key(spec.Graph)
	admission.Finish()

	cj := &cjob{key: key, spec: spec, trace: spec.Trace, created: time.Now(), tl: tl, root: root}

	// Cluster-shared cache: a result any worker computed — for any
	// client, through any previous router process — answers here without
	// touching the fleet. Traced jobs bypass it, same as a single node.
	if !cj.trace {
		lookup := root.StartChild("cache_lookup")
		if res, ok := r.cache.Get(key); ok {
			lookup.Annotate("result", "hit")
			lookup.Finish()
			r.reg.Counter(MetricCacheHits).Inc()
			r.register(cj)
			v := cj.skeletonView()
			v.State = serve.StateDone
			v.Cached = true
			v.Result = res
			v.Node = r.cfg.NodeName
			root.Finish()
			v.LatencyNs = root.DurationNs()
			cj.mu.Lock()
			cj.terminalV = &v
			cj.mu.Unlock()
			r.publishTimeline(cj, serve.StateDone)
			serve.WriteJSON(w, http.StatusOK, v)
			return
		}
		lookup.Annotate("result", "miss")
		lookup.Finish()
		r.reg.Counter(MetricCacheMisses).Inc()
	}

	// Cluster-wide admission. Two gates: the router's own p99 guard over
	// end-to-end latency, and the fleet's scraped SLO levels — if every
	// live owner of this digest would shed the priority, bounce it here
	// instead of burning a forward round-trip to be told the same.
	if r.slo.ShouldShed(spec.Priority) || serve.SLOLevelSheds(r.minOwnerLevel(spec.Graph), spec.Priority) {
		r.reg.Counter(MetricJobsShed).Inc()
		root.Annotate("outcome", "shed")
		root.Finish()
		r.publishTimeline(cj, "shed")
		w.Header().Set("Retry-After", fmt.Sprintf("%d", r.retryAfterSeconds()))
		serve.WriteErr(w, http.StatusTooManyRequests,
			"cluster shedding %s-priority load; retry later", serve.DisplayPriority(spec.Priority))
		return
	}
	if !r.admit(cj) {
		r.reg.Counter(MetricJobsRejected).Inc()
		root.Annotate("outcome", "rejected")
		root.Finish()
		r.publishTimeline(cj, "rejected")
		w.Header().Set("Retry-After", fmt.Sprintf("%d", r.retryAfterSeconds()))
		serve.WriteErr(w, http.StatusTooManyRequests,
			"cluster in-flight bound reached (%d jobs); retry later", r.cfg.MaxInflight)
		return
	}
	r.register(cj)

	res := r.forward(cj, "")
	switch {
	case res.terminal:
		serve.WriteJSON(w, http.StatusOK, *cj.terminalView())
	case res.assigned:
		w.Header().Set("Location", "/v1/jobs/"+cj.id)
		serve.WriteJSON(w, http.StatusAccepted, res.view)
	case res.status == http.StatusTooManyRequests:
		r.unadmit(cj)
		r.reg.Counter(MetricJobsBounced).Inc()
		root.Annotate("outcome", "bounced")
		root.Finish()
		r.publishTimeline(cj, "bounced")
		ra := res.retryAfter
		if ra == "" {
			ra = fmt.Sprintf("%d", r.retryAfterSeconds())
		}
		w.Header().Set("Retry-After", ra)
		serve.WriteErr(w, http.StatusTooManyRequests, "every replica is shedding load; retry later")
	case res.status == http.StatusServiceUnavailable:
		r.unadmit(cj)
		r.reg.Counter(MetricJobsUnroutable).Inc()
		root.Annotate("outcome", "unroutable")
		root.Finish()
		r.publishTimeline(cj, "unroutable")
		serve.WriteErr(w, http.StatusServiceUnavailable, "no live worker can take the job; retry later")
	default:
		// A worker judged the spec itself bad (e.g. unknown digest nowhere
		// repairable). Relay its verdict and leave no job behind.
		r.unadmit(cj)
		root.Annotate("outcome", "refused")
		root.Finish()
		r.publishTimeline(cj, "refused")
		serve.WriteErr(w, res.status, "%s", res.errMsg)
	}
}

// fwdResult is one forward round's outcome.
type fwdResult struct {
	terminal   bool // finalized from a terminal worker answer
	assigned   bool // accepted by a worker; cj.node/workerID set
	view       serve.JobView
	status     int // when neither: the HTTP status to surface
	retryAfter string
	errMsg     string
}

// forward walks the digest's live replicas (rendezvous order, rotated so
// a hot digest's load spreads) and places the job on the first worker
// that takes it. 429s note the backpressure and move on; 503s mark the
// member draining; connection errors mark it down; a 404 for the graph
// digest re-pushes the graph from the router mirror and retries the same
// worker once — the repair path for workers that restarted empty.
func (r *Router) forward(cj *cjob, exclude string) fwdResult {
	order := r.routeOrder(cj.spec.Graph, exclude)
	if len(order) == 0 {
		return fwdResult{status: http.StatusServiceUnavailable, errMsg: "no live members"}
	}
	start := int(r.rotor.Add(1)) % len(order)
	saw429 := false
	maxRetryAfter := 0
	lastErr := "no live members"
	for i := 0; i < len(order); i++ {
		m := order[(start+i)%len(order)]
		span := cj.root.StartChild("forward")
		span.Annotate("node", m.displayName())
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ForwardTimeout)
		view, status, ra, err := r.submitTo(ctx, m, cj.spec, cj.tl.TraceID())
		if status == http.StatusNotFound {
			// Worker lost (or never had) the graph; heal it from the mirror.
			if perr := r.pushGraph(ctx, m, cj.spec.Graph); perr == nil {
				span.Annotate("graph_pushed", "true")
				view, status, ra, err = r.submitTo(ctx, m, cj.spec, cj.tl.TraceID())
			}
		}
		cancel()
		span.Annotate("status", fmt.Sprintf("%d", status))
		span.Finish()
		switch {
		case status == http.StatusOK || status == http.StatusAccepted:
			r.reg.Counter(MetricJobsForwarded).Inc()
			cj.mu.Lock()
			cj.node, cj.workerID = m.base, view.ID
			cj.lastState = view.State
			cj.mu.Unlock()
			if view.State == serve.StateDone || view.State == serve.StateFailed {
				fv := r.finalize(cj, m, view)
				return fwdResult{terminal: true, view: fv}
			}
			return fwdResult{assigned: true, view: cj.translate(view, m.displayName())}
		case status == http.StatusTooManyRequests:
			saw429 = true
			// Workers may answer in either RFC 9110 form; normalize to
			// whole seconds (rounded up) for the re-emitted header.
			if d, ok := serve.ParseRetryAfter(ra, time.Now()); ok {
				if n := int((d + time.Second - 1) / time.Second); n > maxRetryAfter {
					maxRetryAfter = n
				}
			}
			lastErr = errString(err)
		case status == http.StatusServiceUnavailable:
			m.draining.Store(true)
			lastErr = errString(err)
		case status == 0:
			r.markDown(m)
			lastErr = errString(err)
		default:
			// 4xx: the spec is wrong in a way the router could not see
			// (e.g. digest unknown and not mirrored). No other worker will
			// disagree — surface it.
			return fwdResult{status: status, errMsg: errString(err)}
		}
	}
	if saw429 {
		// Clamp to the bound every node's own estimate obeys, so one
		// confused worker cannot park every client behind a giant
		// date-form header.
		maxRetryAfter = min(maxRetryAfter, serve.MaxRetryAfterSeconds)
		ra := ""
		if maxRetryAfter > 0 {
			ra = strconv.Itoa(maxRetryAfter)
		}
		return fwdResult{status: http.StatusTooManyRequests, retryAfter: ra, errMsg: lastErr}
	}
	return fwdResult{status: http.StatusServiceUnavailable, errMsg: lastErr}
}

// ---- poll / redispatch -------------------------------------------------

func (r *Router) handleJobGet(w http.ResponseWriter, req *http.Request) {
	cj := r.jobByID(req.PathValue("id"))
	if cj == nil {
		serve.WriteErr(w, http.StatusNotFound, "unknown job %q", req.PathValue("id"))
		return
	}
	serve.WriteJSON(w, http.StatusOK, r.resolve(cj))
}

// resolve returns the job's current view, consulting the owning worker.
// A dead or amnesiac worker (connection error, or 404 after a restart)
// triggers the redispatch path: the job is re-placed on another replica
// at most once — the engine is deterministic in the spec, so the re-run
// returns the byte-identical result the lost run would have.
func (r *Router) resolve(cj *cjob) serve.JobView {
	cj.resMu.Lock()
	defer cj.resMu.Unlock()
	if v := cj.terminalView(); v != nil {
		return *v
	}
	node, workerID := cj.assignment()
	m := r.memberByBase(node)
	if m == nil || workerID == "" {
		return cj.skeletonView()
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ForwardTimeout)
	var view serve.JobView
	status, _, err := r.getJSON(ctx, m.base, "/v1/jobs/"+workerID, &view)
	cancel()
	switch {
	case status == http.StatusOK && (view.State == serve.StateDone || view.State == serve.StateFailed):
		return r.finalize(cj, m, view)
	case status == http.StatusOK:
		cj.mu.Lock()
		cj.lastState = view.State
		cj.mu.Unlock()
		return cj.translate(view, m.displayName())
	case status == 0 || status == http.StatusNotFound:
		if status == 0 {
			r.markDown(m)
		}
		r.logger.Warn("job lost with worker; redispatching",
			"job_id", cj.id, "member", m.displayName(), "status", status, "err", err)
		return r.redispatch(cj, m.base)
	default:
		// Transient worker hiccup: report what we know; the next poll
		// retries.
		return cj.skeletonView()
	}
}

// redispatch re-places a job whose worker died or forgot it — once. The
// resubmission routes around the failed node (and any node the prober
// has marked down), pushing the graph from the router mirror when the
// replacement lacks it. A second loss fails the job: losing two replicas
// inside one job's lifetime is an outage to report, not to paper over.
func (r *Router) redispatch(cj *cjob, failedNode string) serve.JobView {
	cj.mu.Lock()
	already := cj.redispatched
	cj.redispatched = true
	cj.mu.Unlock()
	if already {
		return r.finalizeFailed(cj, "job lost twice: worker crashed after redispatch")
	}
	r.reg.Counter(MetricJobsRedispatched).Inc()
	cj.root.Annotate("redispatched_from", failedNode)
	res := r.forward(cj, failedNode)
	switch {
	case res.terminal:
		return *cj.terminalView()
	case res.assigned:
		return res.view
	default:
		return r.finalizeFailed(cj, fmt.Sprintf("redispatch found no worker: %s", res.errMsg))
	}
}

// finalize installs a worker's terminal view as the job's answer,
// feeding the shared cache, the router SLO guard, and the counters.
func (r *Router) finalize(cj *cjob, m *member, view serve.JobView) serve.JobView {
	v := cj.translate(view, m.displayName())
	cj.mu.Lock()
	if cj.terminalV != nil {
		defer cj.mu.Unlock()
		return *cj.terminalV
	}
	cj.mu.Unlock()

	latency := time.Since(cj.created)
	cj.root.Annotate("node", m.displayName())
	cj.root.Finish()
	v.LatencyNs = cj.root.DurationNs()

	cj.mu.Lock()
	cj.terminalV = &v
	cj.mu.Unlock()

	r.settle(cj)
	if v.State == serve.StateDone {
		r.reg.Counter(MetricJobsCompleted).Inc()
		// Complete results are reusable cluster-wide; partial
		// (deadline-shaped) ones and traced runs are not.
		if v.Result != nil && !v.Result.Partial && !cj.trace {
			r.cache.Put(cj.key, v.Result)
		}
	} else {
		r.reg.Counter(MetricJobsFailed).Inc()
	}
	r.reg.Histogram(HistJobWallNs, serve.JobWallBuckets).
		Observe(float64(latency.Nanoseconds()))
	r.slo.ObserveLatency(latency)
	r.publishTimeline(cj, v.State)
	r.logger.Info("cluster job terminal",
		"job_id", cj.id, "trace_id", cj.tl.TraceID(), "state", v.State,
		"node", m.displayName(), "latency_ms", latency.Milliseconds())
	return v
}

// finalizeFailed closes a job the cluster could not finish.
func (r *Router) finalizeFailed(cj *cjob, msg string) serve.JobView {
	v := cj.skeletonView()
	v.State = serve.StateFailed
	v.Error = msg
	cj.root.Annotate("outcome", "lost")
	cj.root.Finish()
	v.LatencyNs = cj.root.DurationNs()
	cj.mu.Lock()
	if cj.terminalV != nil {
		defer cj.mu.Unlock()
		return *cj.terminalV
	}
	cj.terminalV = &v
	cj.mu.Unlock()
	r.settle(cj)
	r.reg.Counter(MetricJobsFailed).Inc()
	r.publishTimeline(cj, serve.StateFailed)
	r.logger.Warn("cluster job failed", "job_id", cj.id, "err", msg)
	return v
}

// settle releases the job's in-flight slot (idempotent per job).
func (r *Router) settle(cj *cjob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cj.admitted {
		cj.admitted = false
		r.inflight--
		r.reg.Gauge(GaugeInflight).Set(float64(r.inflight))
	}
}

// retryAfterSeconds estimates when a bounced client should come back:
// the cluster's in-flight backlog over the live fleet.
func (r *Router) retryAfterSeconds() int {
	r.mu.Lock()
	backlog := r.inflight + 1
	r.mu.Unlock()
	return serve.RetryAfterSeconds(backlog, len(r.upMembers("")), r.slo.MeanLatency())
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
