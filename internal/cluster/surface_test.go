package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// The router's non-routing surface — health, the Prometheus page, graph
// upload/list/info/download and the debug endpoints — must answer exactly
// as a worker does: a client cannot tell a router from a single daemon.
// These tests send one request sequence to a router and to a standalone
// worker configured alike, and compare status, Content-Type and decoded
// body (Role and Node aside: those name the node by design).

// surfaceAnswer is one HTTP exchange's observable outcome.
type surfaceAnswer struct {
	status int
	ctype  string
	body   []byte
}

func surfaceDo(t *testing.T, method, url string, body []byte) surfaceAnswer {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return surfaceAnswer{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: b}
}

// decodeSansNode decodes a JSON body with the node-naming keys removed.
func decodeSansNode(t *testing.T, body []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if m, ok := v.(map[string]any); ok {
		delete(m, "role")
		delete(m, "node")
	}
	return v
}

// surfaceCase is one request in the sequence. path gets the side's job ID
// (c-… on the router, j-… on the worker) for per-job endpoints.
type surfaceCase struct {
	name   string
	method string
	path   func(jobID string) string
	body   []byte
	// status, when set, is the status both sides must answer.
	status int
	// compare checks the two answers beyond status and Content-Type;
	// nil compares the decoded JSON bodies.
	compare func(t *testing.T, router, worker surfaceAnswer)
}

func fixedPath(p string) func(string) string { return func(string) string { return p } }

// runSurfaceCases plays the cases against both sides in order.
func runSurfaceCases(t *testing.T, routerBase, workerBase string, routerJob, workerJob string, cases []surfaceCase) {
	t.Helper()
	for _, tc := range cases {
		method := tc.method
		if method == "" {
			method = http.MethodGet
		}
		ra := surfaceDo(t, method, routerBase+tc.path(routerJob), tc.body)
		wa := surfaceDo(t, method, workerBase+tc.path(workerJob), tc.body)
		if ra.status != wa.status {
			t.Errorf("%s: status router %d, worker %d (router body %s)", tc.name, ra.status, wa.status, ra.body)
			continue
		}
		if tc.status != 0 && ra.status != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, ra.status, tc.status, ra.body)
		}
		if ra.ctype != wa.ctype {
			t.Errorf("%s: Content-Type router %q, worker %q", tc.name, ra.ctype, wa.ctype)
		}
		if tc.compare != nil {
			tc.compare(t, ra, wa)
			continue
		}
		if rv, wv := decodeSansNode(t, ra.body), decodeSansNode(t, wa.body); !reflect.DeepEqual(rv, wv) {
			t.Errorf("%s: body differs\n router %s\n worker %s", tc.name, ra.body, wa.body)
		}
	}
}

// surfaceLimits are small enough to draw 413s from both sides.
var surfaceLimits = graph.Limits{MaxVertices: 200, MaxEdges: 1000}

const surfaceMaxUpload = 16 << 10

// startSurfacePair boots a router over two workers and a standalone
// worker, configured alike.
func startSurfacePair(t *testing.T, flightSize int) (*InProcess, *serve.InProcess) {
	t.Helper()
	wcfg := serve.Config{
		Workers: 1, GraphLimits: surfaceLimits, MaxUploadBytes: surfaceMaxUpload,
		FlightRecorderSize: flightSize,
	}
	c := startTestCluster(t, 2, wcfg, Config{
		NodeName: "front", GraphLimits: surfaceLimits, MaxUploadBytes: surfaceMaxUpload,
		FlightRecorderSize: flightSize,
	})
	wcfg.NodeName = "solo"
	solo, err := serve.StartInProcess(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = solo.Close(10 * time.Second) })
	return c, solo
}

// TestRouterSurfaceMatchesWorker pins the router's non-routing HTTP
// surface to a worker's, request for request.
func TestRouterSurfaceMatchesWorker(t *testing.T) {
	c, solo := startSurfacePair(t, 0)
	text, _ := testEdgeList(t, 41)
	up, err := solo.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	digest := up.Digest
	// The standalone worker already holds the graph; take it out of the
	// comparison by uploading it to the router too, then compare a fresh
	// upload (201) and its repeat (200) on both sides.
	if _, err := c.Client.UploadGraph(text); err != nil {
		t.Fatal(err)
	}
	fresh, _ := testEdgeList(t, 42)
	oversize := bytes.Repeat([]byte("0 1\n"), surfaceMaxUpload)
	delta := []byte(`{"insert":[[0,1]]}`)
	deltaPath := fixedPath("/v1/graphs/" + digest + "/delta")
	oversizeDelta := []byte(`{"insert":[` + strings.Repeat("[0,1],", surfaceMaxUpload) + `[0,1]]}`)

	cases := []surfaceCase{
		{name: "healthz ok", path: fixedPath("/healthz")},
		{name: "debug jobs empty", path: fixedPath("/debug/jobs")},
		{name: "debug slo", path: fixedPath("/debug/slo")},
		{name: "upload created", method: http.MethodPost, path: fixedPath("/v1/graphs"), body: []byte(fresh), status: http.StatusCreated},
		{name: "upload deduped", method: http.MethodPost, path: fixedPath("/v1/graphs"), body: []byte(fresh), status: http.StatusOK},
		{name: "upload malformed", method: http.MethodPost, path: fixedPath("/v1/graphs"), body: []byte("0 x\n"), status: http.StatusBadRequest},
		{name: "upload over vertex limit", method: http.MethodPost, path: fixedPath("/v1/graphs"), body: []byte("n 1000\n0 1\n"), status: http.StatusRequestEntityTooLarge},
		{name: "upload over byte limit", method: http.MethodPost, path: fixedPath("/v1/graphs"), body: oversize, status: http.StatusRequestEntityTooLarge},
		{name: "graph list", path: fixedPath("/v1/graphs"), compare: compareGraphLists},
		{name: "graph info", path: fixedPath("/v1/graphs/" + digest)},
		{name: "graph info unknown", path: fixedPath("/v1/graphs/feedface"), status: http.StatusNotFound},
		{name: "graph edgelist", path: fixedPath("/v1/graphs/" + digest + "/edgelist"), compare: compareRaw},
		{name: "graph edgelist unknown", path: fixedPath("/v1/graphs/feedface/edgelist"), status: http.StatusNotFound},
		{name: "delta over byte limit", method: http.MethodPost, path: deltaPath, body: oversizeDelta, status: http.StatusRequestEntityTooLarge},
		{name: "delta unknown parent", method: http.MethodPost, path: fixedPath("/v1/graphs/feedface/delta"), body: delta, status: http.StatusNotFound},
		{name: "delta malformed", method: http.MethodPost, path: deltaPath, body: []byte(`{"insert":`), status: http.StatusBadRequest},
		{name: "healthz shards", path: fixedPath("/healthz")},
		{name: "metrics prom", path: fixedPath("/metrics?format=prom"), compare: compareProm},
	}
	runSurfaceCases(t, c.BaseURL, solo.BaseURL, "", "", cases)

	// One finished job per side, so the flight recorders hold a timeline.
	routerJob := surfaceRunJob(t, c.Client, digest)
	workerJob := surfaceRunJob(t, solo.Client, digest)
	surfaceAwaitTimeline(t, c.Client, routerJob)
	surfaceAwaitTimeline(t, solo.Client, workerJob)

	jobCases := []surfaceCase{
		{name: "debug jobs", path: fixedPath("/debug/jobs"), compare: compareDebugJobs},
		{name: "debug job hit", path: func(id string) string { return "/debug/jobs/" + id }, compare: compareDebugJob},
		{name: "debug job miss", path: fixedPath("/debug/jobs/no-such-job"), status: http.StatusNotFound},
	}
	runSurfaceCases(t, c.BaseURL, solo.BaseURL, routerJob, workerJob, jobCases)

	c.Router.BeginDrain()
	solo.Server.BeginDrain()
	runSurfaceCases(t, c.BaseURL, solo.BaseURL, "", "", []surfaceCase{
		{name: "healthz draining", path: fixedPath("/healthz"), status: http.StatusServiceUnavailable},
		{name: "submit while draining", method: http.MethodPost, path: fixedPath("/v1/jobs"),
			body: []byte(`{"graph":"` + digest + `","pattern":"triangle"}`), status: http.StatusServiceUnavailable},
		{name: "delta while draining", method: http.MethodPost, path: deltaPath, body: delta, status: http.StatusServiceUnavailable},
	})
}

// TestRouterSurfaceRecorderDisabled compares the debug endpoints of a
// router and a worker that both run without a flight recorder.
func TestRouterSurfaceRecorderDisabled(t *testing.T) {
	c, solo := startSurfacePair(t, -1)
	runSurfaceCases(t, c.BaseURL, solo.BaseURL, "", "", []surfaceCase{
		{name: "debug jobs disabled", path: fixedPath("/debug/jobs")},
		{name: "debug job disabled", path: fixedPath("/debug/jobs/j-000001"), status: http.StatusNotFound},
	})
}

func surfaceRunJob(t *testing.T, cl *serve.Client, digest string) string {
	t.Helper()
	jv, _, err := cl.SubmitJob(serve.JobSpec{Graph: digest, Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.WaitJob(jv.ID, 30*time.Second)
	if err != nil || done.State != serve.StateDone {
		t.Fatalf("job %s: state %s, err %v %s", jv.ID, done.State, err, done.Error)
	}
	return jv.ID
}

// surfaceAwaitTimeline waits for a job's timeline to land in the
// recorder: a worker publishes it just after the job turns done.
func surfaceAwaitTimeline(t *testing.T, cl *serve.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, err := cl.DebugJob(id); err == nil && v != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline of %s never recorded", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func compareRaw(t *testing.T, router, worker surfaceAnswer) {
	if !bytes.Equal(router.body, worker.body) {
		t.Errorf("raw body differs\n router %q\n worker %q", router.body, worker.body)
	}
}

// compareGraphLists compares the listed graphs as sets: the store lists
// in recency order, and the two sides saw the uploads in different orders.
func compareGraphLists(t *testing.T, router, worker surfaceAnswer) {
	set := func(body []byte) map[string]serve.GraphInfo {
		var v struct {
			Graphs []serve.GraphInfo `json:"graphs"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]serve.GraphInfo, len(v.Graphs))
		for _, g := range v.Graphs {
			out[g.Digest] = g
		}
		return out
	}
	if r, w := set(router.body), set(worker.body); !reflect.DeepEqual(r, w) {
		t.Errorf("graph lists differ\n router %s\n worker %s", router.body, worker.body)
	}
}

// compareProm checks that both pages label every sample with their own
// node name. The metric families differ (cluster_* vs serve_*) by design.
func compareProm(t *testing.T, router, worker surfaceAnswer) {
	for _, side := range []struct {
		name, node string
		body       []byte
	}{{"router", "front", router.body}, {"worker", "solo", worker.body}} {
		samples := 0
		for _, line := range strings.Split(string(side.body), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			samples++
			if !strings.Contains(line, `node="`+side.node+`"`) {
				t.Errorf("%s prom sample without its node label: %q", side.name, line)
			}
		}
		if samples == 0 {
			t.Errorf("%s prom page has no samples", side.name)
		}
	}
}

// compareDebugJobs compares the recorder listings by count and outcomes;
// span names and timings differ by design (cluster_job vs job).
func compareDebugJobs(t *testing.T, router, worker surfaceAnswer) {
	outcomes := func(body []byte) (int, []string) {
		var v serve.DebugJobsView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tl := range v.Timelines {
			out = append(out, tl.Outcome)
		}
		return v.Count, out
	}
	rc, ro := outcomes(router.body)
	wc, wo := outcomes(worker.body)
	if rc != wc || !reflect.DeepEqual(ro, wo) {
		t.Errorf("debug jobs differ: router %d %v, worker %d %v", rc, ro, wc, wo)
	}
}

func compareDebugJob(t *testing.T, router, worker surfaceAnswer) {
	var rv, wv struct {
		JobID   string `json:"job_id"`
		Outcome string `json:"outcome"`
	}
	if err := json.Unmarshal(router.body, &rv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(worker.body, &wv); err != nil {
		t.Fatal(err)
	}
	if rv.Outcome != wv.Outcome || rv.JobID == "" || wv.JobID == "" {
		t.Errorf("debug job differs: router %+v, worker %+v", rv, wv)
	}
}

// TestRouterRejectsSpecsLikeWorker pins the router's spec check to the
// worker's: each spec here is refused by a worker, and the router must
// refuse it with the same status and message, before it stores an inline
// graph or answers from its cache.
func TestRouterRejectsSpecsLikeWorker(t *testing.T) {
	c, solo := startSurfacePair(t, 0)
	text, _ := testEdgeList(t, 43)
	fresh, _ := testEdgeList(t, 44) // in neither store: storing it would show
	var digest string
	for _, cl := range []*serve.Client{c.Client, solo.Client} {
		up, err := cl.UploadGraph(text)
		if err != nil {
			t.Fatal(err)
		}
		digest = up.Digest
		// Cache the digest's triangle count on both sides.
		jv, _, err := cl.SubmitJob(serve.JobSpec{Graph: digest, Pattern: "triangle", Mode: serve.ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		if done, err := cl.WaitJob(jv.ID, 30*time.Second); err != nil || done.State != serve.StateDone {
			t.Fatalf("priming count job: %v %+v", err, done)
		}
	}
	count := func(opts subgraph.OptionsSpec) serve.JobSpec {
		return serve.JobSpec{Graph: digest, Pattern: "triangle", Mode: serve.ModeCount, Options: opts}
	}
	specs := []struct {
		name string
		spec serve.JobSpec
	}{
		{"inline graph, bad pattern", serve.JobSpec{GraphInline: fresh, Pattern: "nope"}},
		{"inline graph, bad priority", serve.JobSpec{GraphInline: fresh, Pattern: "triangle", Priority: "urgent"}},
		{"cached count, resilient", count(subgraph.OptionsSpec{Resilient: true})},
		{"cached count, faults", count(subgraph.OptionsSpec{Faults: &subgraph.FaultSpec{DropRate: 0.1}})},
		{"graph and inline graph", serve.JobSpec{Graph: digest, GraphInline: fresh, Pattern: "triangle"}},
	}
	graphs := c.Router.store.Len()
	uploads := c.Router.reg.Counter(MetricGraphUploads).Value()
	for _, tc := range specs {
		body, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		ra := surfaceDo(t, http.MethodPost, c.BaseURL+"/v1/jobs", body)
		wa := surfaceDo(t, http.MethodPost, solo.BaseURL+"/v1/jobs", body)
		if wa.status != http.StatusBadRequest {
			t.Fatalf("%s: worker answered %d %s, want 400", tc.name, wa.status, wa.body)
		}
		if ra.status != wa.status || !bytes.Equal(ra.body, wa.body) {
			t.Errorf("%s: router %d %s, worker %d %s", tc.name, ra.status, ra.body, wa.status, wa.body)
		}
	}
	if got := c.Router.store.Len(); got != graphs {
		t.Errorf("router mirror holds %d graphs after the rejections, want %d", got, graphs)
	}
	if got := c.Router.reg.Counter(MetricGraphUploads).Value(); got != uploads {
		t.Errorf("%s = %d after the rejections, want %d", MetricGraphUploads, got, uploads)
	}
}
