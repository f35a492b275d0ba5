package serve

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// deadEndpoint returns a base URL that refuses connections: a listener
// bound and immediately closed, so its port is (momentarily) free.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ln.Close()
	return base
}

// TestClientFailoverConnError pins the first failover contract: a
// multi-endpoint client whose current endpoint gives no response
// (status 0) retries on the next endpoint, and the call succeeds.
func TestClientFailoverConnError(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, HealthView{Status: "ok"})
	}))
	defer live.Close()
	dead := deadEndpoint(t)

	c := &Client{Endpoints: []string{dead, live.URL}, Retry: noSleepPolicy(3)}
	var v HealthView
	status, err := c.do("GET", "/healthz", "", nil, &v)
	if err != nil || status != http.StatusOK {
		t.Fatalf("failover call: status %d err %v", status, err)
	}
	if v.Status != "ok" {
		t.Fatalf("unexpected view: %+v", v)
	}
	if got := c.Stats.Recovered.Load(); got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}

	eps := c.EndpointStatsView()
	if s := eps[dead]; s.Attempts != 1 || s.Failures != 1 || s.Rotations != 1 {
		t.Fatalf("dead endpoint stats = %+v, want 1 attempt/failure/rotation", s)
	}
	if s := eps[live.URL]; s.Attempts != 1 || s.Failures != 0 {
		t.Fatalf("live endpoint stats = %+v, want 1 clean attempt", s)
	}
}

// TestClientFailover502 pins the second contract: a 502 from the current
// endpoint rotates the retry to the next endpoint, with attribution per
// endpoint.
func TestClientFailover502(t *testing.T) {
	var mu sync.Mutex
	badHits := 0
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		badHits++
		mu.Unlock()
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer bad.Close()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"pong": "1"})
	}))
	defer live.Close()

	c := &Client{Endpoints: []string{bad.URL, live.URL}, Retry: noSleepPolicy(3)}
	status, err := c.do("GET", "/ping", "", nil, &map[string]string{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("failover call: status %d err %v", status, err)
	}
	mu.Lock()
	hits := badHits
	mu.Unlock()
	if hits != 1 {
		t.Fatalf("bad endpoint hit %d times, want exactly 1 (rotation must move off it)", hits)
	}
	eps := c.EndpointStatsView()
	if s := eps[bad.URL]; s.Failures != 1 || s.Rotations != 1 {
		t.Fatalf("bad endpoint stats = %+v", s)
	}
	// Stickiness: a follow-up call keeps using the endpoint that worked.
	if _, err := c.do("GET", "/ping", "", nil, &map[string]string{}); err != nil {
		t.Fatal(err)
	}
	if s := c.EndpointStatsView()[live.URL]; s.Attempts != 2 {
		t.Fatalf("live endpoint attempts = %d, want 2 (client should stay sticky)", s.Attempts)
	}
}

// TestClientFailover429StaysPut pins the third contract: 429 is
// cluster-wide backpressure, not an endpoint fault — the client honors
// the Retry-After in place (surfaced unchanged into the backoff) and
// never rotates to the other endpoint.
func TestClientFailover429StaysPut(t *testing.T) {
	backpressured := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer backpressured.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{})
	}))
	defer other.Close()

	var slept []time.Duration
	c := &Client{
		Endpoints: []string{backpressured.URL, other.URL},
		Retry: &RetryPolicy{
			MaxAttempts:   2,
			BaseDelay:     time.Microsecond,
			MaxRetryAfter: 10 * time.Second,
			Sleep:         func(d time.Duration) { slept = append(slept, d) },
		},
	}
	status, _ := c.do("GET", "/x", "", nil, &map[string]string{})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 surfaced", status)
	}
	if got := c.Stats.Exhausted429.Load(); got != 1 {
		t.Fatalf("Exhausted429 = %d, want 1", got)
	}
	// The server asked for 7s; with backoff far below it, the honored
	// delay is exactly the Retry-After value.
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want exactly [7s] from Retry-After", slept)
	}
	eps := c.EndpointStatsView()
	if s := eps[backpressured.URL]; s.Attempts != 2 || s.Rotations != 0 {
		t.Fatalf("backpressured endpoint stats = %+v, want 2 attempts and no rotation", s)
	}
	if s, ok := eps[other.URL]; ok && s.Attempts != 0 {
		t.Fatalf("other endpoint was attempted (%+v); 429 must not rotate", s)
	}
}

// TestClientFailoverSubmitJob runs the failover path end to end against
// a real daemon: submissions through a client whose first endpoint is
// dead land on the live node and complete with the usual result.
func TestClientFailoverSubmitJob(t *testing.T) {
	_, direct := newTestServer(t, Config{Workers: 1})
	text, _ := testEdgeList(t, 7)
	up, err := direct.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}

	c := &Client{Endpoints: []string{deadEndpoint(t), direct.Base}, Retry: noSleepPolicy(4)}
	jv, status, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle"})
	if err != nil {
		t.Fatalf("submit through failover: %v", err)
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit status = %d", status)
	}
	done, err := c.WaitJob(jv.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("job state %s, result %v", done.State, done.Result)
	}
	if s := c.EndpointStatsView()[direct.Base]; s.Attempts == 0 {
		t.Fatal("live endpoint has no attributed attempts")
	}
}

// noSleepPolicy retries without sleeping so failover tests stay instant
// (fastPolicy in retry_test.go also records sleeps, which these tests
// don't need).
func noSleepPolicy(attempts int) *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Microsecond,
		Sleep:       func(time.Duration) {},
	}
}
