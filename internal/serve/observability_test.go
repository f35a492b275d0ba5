package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/obs"
)

// submitRaw posts a job spec with an optional X-Trace-Id header and
// returns the raw response plus the decoded job view.
func submitRaw(t *testing.T, base string, spec JobSpec, traceID string) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(TraceIDHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jv JobView
	_ = json.NewDecoder(resp.Body).Decode(&jv)
	return resp, jv
}

// TestTraceIDPropagation pins the header contract: a valid client trace
// ID rides through to the job and is echoed back; an invalid one is
// replaced (never stored) but the replacement is still echoed.
func TestTraceIDPropagation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, _ := testEdgeList(t, 20)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 1}}

	resp, jv := submitRaw(t, c.Base, spec, "my-trace_042")
	if got := resp.Header.Get(TraceIDHeader); got != "my-trace_042" {
		t.Fatalf("echoed trace ID %q, want the one sent", got)
	}
	if jv.TraceID != "my-trace_042" {
		t.Fatalf("job view trace ID %q, want my-trace_042", jv.TraceID)
	}
	if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil || jv.TraceID != "my-trace_042" {
		t.Fatalf("finished job trace ID %q (%v)", jv.TraceID, err)
	}

	// Injection attempt: whitespace and newlines fail validation, so the
	// server mints a replacement instead of storing attacker bytes.
	bad := "evil\nheader attempt"
	resp2, jv2 := submitRaw(t, c.Base, JobSpec{
		Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 2},
	}, strings.ReplaceAll(bad, "\n", "_")+"!")
	echoed := resp2.Header.Get(TraceIDHeader)
	if !obs.ValidTraceID(echoed) {
		t.Fatalf("replacement trace ID %q is itself invalid", echoed)
	}
	if strings.Contains(echoed, "!") {
		t.Fatalf("invalid client trace ID %q was stored", echoed)
	}
	if jv2.TraceID != echoed {
		t.Fatalf("job trace ID %q != echoed header %q", jv2.TraceID, echoed)
	}
	if _, err := c.WaitJob(jv2.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// phaseOrder asserts the named spans exist and run back to back without
// overlap, returning them for further checks.
func phaseOrder(t *testing.T, tl *obs.TimelineView, names ...string) []*obs.SpanView {
	t.Helper()
	spans := make([]*obs.SpanView, len(names))
	for i, name := range names {
		sp := tl.SpanByName(name)
		if sp == nil {
			t.Fatalf("timeline %s has no %q span:\n%+v", tl.TraceID, name, tl.Spans)
		}
		if sp.DurationNs() < 0 {
			t.Fatalf("%s: negative duration %d", name, sp.DurationNs())
		}
		if i > 0 && sp.StartNs < spans[i-1].EndNs {
			t.Fatalf("%s starts at %d before %s ends at %d",
				name, sp.StartNs, names[i-1], spans[i-1].EndNs)
		}
		spans[i] = sp
	}
	return spans
}

// TestDebugJobTimeline is the flight-recorder acceptance path: a finished
// job is retrievable at /debug/jobs/{id} by job ID and by trace ID, its
// spans cover admission→response monotonically, and the timeline total
// equals the latency the job view reports.
func TestDebugJobTimeline(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, _ := testEdgeList(t, 21)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	jv, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil || jv.State != StateDone {
		t.Fatalf("job: %s (%v)", jv.State, err)
	}
	if jv.LatencyNs <= 0 {
		t.Fatalf("finished job reports latency %d", jv.LatencyNs)
	}

	tl, err := c.DebugJob(jv.ID)
	if err != nil {
		t.Fatalf("by job ID: %v", err)
	}
	byTrace, err := c.DebugJob(jv.TraceID)
	if err != nil {
		t.Fatalf("by trace ID: %v", err)
	}
	if byTrace.JobID != tl.JobID || byTrace.TraceID != tl.TraceID {
		t.Fatalf("trace-ID lookup found (%s,%s), job-ID lookup (%s,%s)",
			byTrace.JobID, byTrace.TraceID, tl.JobID, tl.TraceID)
	}
	if tl.Outcome != StateDone || tl.JobID != jv.ID || tl.TraceID != jv.TraceID {
		t.Fatalf("timeline identity: outcome=%s job=%s trace=%s, want done/%s/%s",
			tl.Outcome, tl.JobID, tl.TraceID, jv.ID, jv.TraceID)
	}
	if tl.TotalNs != jv.LatencyNs {
		t.Fatalf("timeline total %d != reported job latency %d", tl.TotalNs, jv.LatencyNs)
	}

	phases := phaseOrder(t, tl, "admission", "cache_lookup", "queue_wait", "engine_run", "response")
	if v, _ := phases[1].Annotation("result"); v != "miss" {
		t.Fatalf("first execution cache_lookup result = %q, want miss", v)
	}
	// The engine run decomposes into the congest runner's phases, all
	// parented under it.
	engine := phases[3]
	for _, name := range []string{"setup", "rounds", "teardown"} {
		sp := tl.SpanByName(name)
		if sp == nil {
			t.Fatalf("engine_run has no %q child", name)
		}
		if sp.ParentID != engine.SpanID {
			t.Fatalf("%s parented under span %d, want engine_run (%d)", name, sp.ParentID, engine.SpanID)
		}
	}
	if _, ok := engine.Annotation("rounds_total"); !ok {
		t.Fatal("engine_run span has no rounds_total annotation")
	}
	// Every span fits inside the root.
	root := tl.SpanByName("job")
	if root == nil {
		t.Fatal("no root job span")
	}
	for i := range tl.Spans {
		if tl.Spans[i].StartNs < root.StartNs || tl.Spans[i].EndNs > root.EndNs {
			// canary_tap may outlive the root (it is recorded after the
			// response on purpose); nothing else may.
			if tl.Spans[i].Name != "canary_tap" {
				t.Fatalf("span %s [%d,%d] outside root [%d,%d]", tl.Spans[i].Name,
					tl.Spans[i].StartNs, tl.Spans[i].EndNs, root.StartNs, root.EndNs)
			}
		}
	}
}

// TestDebugJobCacheHitTimeline pins the fast path's shape: no queue or
// engine spans, a hit-annotated lookup, and total == reported latency.
func TestDebugJobCacheHitTimeline(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, _ := testEdgeList(t, 22)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 4}}
	jv, _, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = c.WaitJob(jv.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	jv2, status, err := c.SubmitJob(spec)
	if err != nil || status != http.StatusOK || !jv2.Cached {
		t.Fatalf("resubmit: (%d, %v) cached=%v", status, err, jv2.Cached)
	}
	tl, err := c.DebugJob(jv2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tl.TotalNs != jv2.LatencyNs || jv2.LatencyNs <= 0 {
		t.Fatalf("cache-hit timeline total %d != latency %d", tl.TotalNs, jv2.LatencyNs)
	}
	lookup := tl.SpanByName("cache_lookup")
	if v, _ := lookup.Annotation("result"); v != "hit" {
		t.Fatalf("cache_lookup result = %q, want hit", v)
	}
	for _, name := range []string{"queue_wait", "engine_run"} {
		if tl.SpanByName(name) != nil {
			t.Fatalf("cache-hit timeline has a %s span", name)
		}
	}
}

// TestDebugJobsDisabled pins the opt-out: a negative recorder size keeps
// /debug/jobs serving (empty) and /debug/jobs/{id} answering 404.
func TestDebugJobsDisabled(t *testing.T) {
	_, c := newTestServer(t, Config{FlightRecorderSize: -1})
	dj, err := c.DebugJobs()
	if err != nil || dj.Count != 0 || dj.Timelines == nil {
		t.Fatalf("disabled recorder: count=%d timelines=%v (%v)", dj.Count, dj.Timelines, err)
	}
	if _, err := c.DebugJob("j-000001"); err == nil {
		t.Fatal("disabled recorder served a timeline")
	}
}

// TestMetricsPromExposition pins the scrape surface: correct content
// type, strictly parseable text, and the latency histograms present with
// consistent counts after traffic.
func TestMetricsPromExposition(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, _ := testEdgeList(t, 23)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 5}}
	jv, _, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = c.WaitJob(jv.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubmitJob(spec); err != nil { // cache hit
		t.Fatal(err)
	}

	resp, err := http.Get(c.Base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse strictly: %v", err)
	}
	byName := map[string]obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for name, wantType := range map[string]string{
		MetricJobsSubmitted: "counter",
		GaugeWorkers:        "gauge",
		HistJobWallNs:       "histogram",
		HistQueueWaitNs:     "histogram",
		HistEngineRunNs:     "histogram",
		HistCacheHitNs:      "histogram",
	} {
		f, ok := byName[name]
		if !ok {
			t.Errorf("family %s missing from exposition", name)
			continue
		}
		if f.Type != wantType {
			t.Errorf("family %s has type %s, want %s", name, f.Type, wantType)
		}
	}
	// One executed job and one cache hit must show up in the counts.
	count := func(fam string) float64 {
		for _, s := range byName[fam].Samples {
			if strings.HasSuffix(s.Name, "_count") {
				return s.Value
			}
		}
		return -1
	}
	if n := count(HistEngineRunNs); n != 1 {
		t.Errorf("engine-run histogram count %v, want 1", n)
	}
	if n := count(HistCacheHitNs); n != 1 {
		t.Errorf("cache-hit histogram count %v, want 1", n)
	}
}

// TestDebugSLOTransitions pins the transition log: degradation and
// recovery land as dated, attributed entries served by /debug/slo.
func TestDebugSLOTransitions(t *testing.T) {
	s, c := newTestServer(t, Config{
		SLO: SLOConfig{LatencyBudget: 100 * time.Millisecond, Window: 10 * time.Second, MinSamples: 4},
	})
	for i := 0; i < 10; i++ {
		s.slo.observeLatency(time.Second)
	}
	var v DebugSLOView
	if _, err := c.do("GET", "/debug/slo", "", nil, &v); err != nil {
		t.Fatal(err)
	}
	if v.Level != "critical" {
		t.Fatalf("level %q, want critical after sustained 1s latencies", v.Level)
	}
	if len(v.Transitions) == 0 {
		t.Fatal("no transitions logged")
	}
	tr := v.Transitions[len(v.Transitions)-1]
	if tr.From != "healthy" || tr.To != "critical" || tr.Trigger != "latency" {
		t.Fatalf("transition %+v, want healthy→critical on latency", tr)
	}
	if tr.P99Ns <= 0 || tr.At.IsZero() {
		t.Fatalf("transition missing evidence: %+v", tr)
	}
}

// TestClientSubmitFlightRecorder pins the client's half of the trace:
// per-attempt spans recorded under the same trace ID the server saw.
func TestClientSubmitFlightRecorder(t *testing.T) {
	s, c := newTestServer(t, Config{})
	c.Flight = obs.NewFlightRecorder(8)
	text, _ := testEdgeList(t, 24)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	jv, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = c.WaitJob(jv.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	last := c.Stats.View().LastTraceID
	if last == "" || last != jv.TraceID {
		t.Fatalf("client LastTraceID %q, server stored %q — the trace is split", last, jv.TraceID)
	}
	tl := c.Flight.Find(last)
	if tl == nil {
		t.Fatalf("no client timeline recorded under %s", last)
	}
	if tl.JobID != jv.ID || tl.Outcome != "submitted" {
		t.Fatalf("client timeline job=%s outcome=%s, want %s/submitted", tl.JobID, tl.Outcome, jv.ID)
	}
	attempt := tl.SpanByName("attempt_1")
	if attempt == nil {
		t.Fatal("no attempt_1 span on the client timeline")
	}
	if st, _ := attempt.Annotation("status"); st != "202" {
		t.Fatalf("attempt_1 status annotation %q, want 202", st)
	}
	// The same trace ID indexes the server's recorder: both halves join.
	if srv, err := c.DebugJob(last); err != nil || srv.JobID != jv.ID {
		t.Fatalf("server half under %s: %v", last, err)
	}

	// A bounced submission records too, with no job to point at.
	s.BeginDrain()
	bc := &Client{Base: c.Base, Retry: NoRetry(), Flight: obs.NewFlightRecorder(8)}
	if _, status, _ := bc.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle"}); status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", status)
	}
	btl := bc.Flight.Find(bc.Stats.View().LastTraceID)
	if btl == nil || btl.Outcome != "bounced" || btl.JobID != "" {
		t.Fatalf("bounced submission timeline: %+v", btl)
	}
}
