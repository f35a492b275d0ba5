package loadtest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// startServer boots an in-process daemon; cleanup drains it.
func startServer(t *testing.T, cfg serve.Config) *serve.InProcess {
	t.Helper()
	p, err := serve.StartInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(10 * time.Second); err != nil {
			t.Errorf("drain on cleanup: %v", err)
		}
	})
	return p
}

func TestSelfCheck(t *testing.T) {
	p := startServer(t, serve.Config{})
	if err := SelfCheck(p.BaseURL, SelfCheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGenSmoke(t *testing.T) {
	p := startServer(t, serve.Config{Workers: 4})
	res, err := RunLoadGen(LoadGenConfig{
		BaseURL: p.BaseURL, Jobs: 30, Concurrency: 4, Seed: 1, Graphs: 3, GraphN: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 30 || res.Errors != 0 {
		t.Fatalf("loadgen: %d ok / %d errors, want 30/0", res.Jobs, res.Errors)
	}
	if res.CacheHits == 0 {
		t.Error("loadgen mix produced no cache hits despite repeats")
	}
	if res.P50Ns <= 0 || res.P99Ns < res.P50Ns {
		t.Fatalf("implausible percentiles: p50=%d p99=%d", res.P50Ns, res.P99Ns)
	}
	out, err := json.Marshal(res.BenchReport())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ServeJobLatencyP50", "ServeJobThroughput", "ServeCacheHitRatePct", "benchreport-v1"} {
		if !bytes.Contains(out, []byte(name)) {
			t.Errorf("bench report missing %q:\n%s", name, out)
		}
	}
}

// TestChaosMiddleware drives the injector deterministically on a
// client's transport: it injects on /v1/ paths, never on /healthz, and a
// retrying client rides through it.
func TestChaosMiddleware(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.HealthView{Status: "ok"})
	}))
	defer ts.Close()
	ch := NewChaos(ChaosConfig{Seed: 7, Reject429: 0.3, Fail503: 0.2, LatencyRate: 0.2, LatencyMax: time.Millisecond})
	hc := &http.Client{Transport: ch}

	// Backoff delays are recorded, not slept.
	fast := &serve.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond,
		Sleep: func(time.Duration) {}}
	c := &serve.Client{Base: ts.URL, HTTPClient: hc, Retry: fast}
	for i := 0; i < 40; i++ {
		if _, err := c.Job("ping"); err != nil {
			t.Fatalf("request %d through chaos: %v", i, err)
		}
	}
	n429, n503, _ := ch.counts()
	injected := n429 + n503
	if injected == 0 {
		t.Fatal("chaos injected nothing over 40 requests at 50% combined rate")
	}
	// Health and metrics paths stay clean.
	for i := 0; i < 20; i++ {
		if _, status, err := c.Health(); err != nil || status != http.StatusOK {
			t.Fatalf("healthz through chaos: (%d, %v)", status, err)
		}
	}
	if n429, n503, _ := ch.counts(); n429+n503 != injected {
		t.Fatal("chaos injected on a non-/v1/ path")
	}

	// An injected answer has the daemon's shape: Retry-After on a 429 and
	// the {"error": …} envelope.
	seen := map[int]bool{}
	for i := 0; i < 200 && !(seen[http.StatusTooManyRequests] && seen[http.StatusServiceUnavailable]); i++ {
		resp, err := hc.Get(ts.URL + "/v1/jobs/ping")
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		decErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			continue
		}
		seen[resp.StatusCode] = true
		if decErr != nil || body["error"] == "" || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("injected %d: body %v (%v), Content-Type %q", resp.StatusCode, body, decErr, resp.Header.Get("Content-Type"))
		}
		if ra := resp.Header.Get("Retry-After"); (resp.StatusCode == http.StatusTooManyRequests) != (ra == "1") {
			t.Fatalf("injected %d with Retry-After %q", resp.StatusCode, ra)
		}
	}
	if !seen[http.StatusTooManyRequests] || !seen[http.StatusServiceUnavailable] {
		t.Fatalf("injected statuses seen: %v, want 429 and 503", seen)
	}
}

// phaseOrder asserts that tl holds the named spans in order without
// overlap.
func phaseOrder(t *testing.T, tl *obs.TimelineView, names ...string) {
	t.Helper()
	var prev *obs.SpanView
	for _, name := range names {
		sp := tl.SpanByName(name)
		if sp == nil {
			t.Fatalf("timeline %s has no %q span:\n%+v", tl.TraceID, name, tl.Spans)
		}
		if sp.DurationNs() < 0 {
			t.Fatalf("%s: negative duration %d", name, sp.DurationNs())
		}
		if prev != nil && sp.StartNs < prev.EndNs {
			t.Fatalf("%s starts at %d before %s ends at %d", name, sp.StartNs, prev.Name, prev.EndNs)
		}
		prev = sp
	}
}

// TestChaosLoadGenTimelines is the end-to-end acceptance run: under
// fault injection, every job the load generator completed is retrievable
// from /debug/jobs/{id} with a monotonic admission→response timeline
// whose total equals the latency the job view reports.
func TestChaosLoadGenTimelines(t *testing.T) {
	p, err := serve.StartInProcess(serve.Config{Workers: 4, FlightRecorderSize: 4096})
	if err != nil {
		t.Fatal(err)
	}

	fast := serve.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		// Injected 429s carry Retry-After: 1; honoring a full second per
		// retry would dominate the test's wall clock.
		MaxRetryAfter: 20 * time.Millisecond,
	}
	res, err := RunLoadGen(LoadGenConfig{
		BaseURL: p.BaseURL, Jobs: 30, Concurrency: 4, Seed: 1, Graphs: 3, GraphN: 40,
		Retry: &fast,
		Chaos: &ChaosConfig{Seed: 1, Reject429: 0.05, Fail503: 0.05, LatencyRate: 0.2, LatencyMax: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 {
		t.Fatal("chaos run completed no jobs")
	}
	if res.Chaos429+res.Chaos503+res.ChaosDelays == 0 {
		t.Fatalf("no injected faults counted: %+v", res)
	}
	if res.BreakdownTimelines < res.Jobs {
		t.Fatalf("breakdown covered %d timelines for %d completed jobs", res.BreakdownTimelines, res.Jobs)
	}
	if res.EngineP99Ns < res.EngineP50Ns || res.QueueWaitP99Ns < res.QueueWaitP50Ns {
		t.Fatalf("implausible breakdown percentiles: %+v", res)
	}

	c := &serve.Client{Base: p.BaseURL, Retry: &fast}
	dj, err := c.DebugJobs()
	if err != nil {
		t.Fatal(err)
	}
	var done int
	for _, tl := range dj.Timelines {
		if tl.Outcome != serve.StateDone {
			continue
		}
		done++
		full, err := c.DebugJob(tl.JobID)
		if err != nil {
			t.Fatalf("completed job %s not retrievable: %v", tl.JobID, err)
		}
		jv, err := c.Job(tl.JobID)
		if err != nil {
			t.Fatalf("completed job %s not pollable: %v", tl.JobID, err)
		}
		if full.TotalNs != jv.LatencyNs {
			t.Fatalf("job %s: timeline total %d != reported latency %d", tl.JobID, full.TotalNs, jv.LatencyNs)
		}
		if lookup := full.SpanByName("cache_lookup"); lookup != nil {
			if v, _ := lookup.Annotation("result"); v == "hit" {
				phaseOrder(t, full, "admission", "cache_lookup")
				continue
			}
		}
		phaseOrder(t, full, "admission", "cache_lookup", "queue_wait", "engine_run", "response")
	}
	if done < res.Jobs {
		t.Fatalf("recorder holds %d done timelines, loadgen completed %d", done, res.Jobs)
	}
	if err := p.Close(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
