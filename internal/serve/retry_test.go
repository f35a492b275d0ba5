package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler answers failStatus for the first fail requests, then 200.
func flakyHandler(fail int, failStatus int, header http.Header) (http.Handler, *atomic.Int64) {
	var hits atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if int(n) <= fail {
			for k, vs := range header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			WriteErr(w, failStatus, "flaky: failure %d", n)
			return
		}
		WriteJSON(w, http.StatusOK, HealthView{Status: "ok"})
	}), &hits
}

// fastPolicy is a retry policy with recorded, not slept, delays.
func fastPolicy(maxAttempts int) (*RetryPolicy, *[]time.Duration) {
	var mu sync.Mutex
	slept := &[]time.Duration{}
	p := &RetryPolicy{
		MaxAttempts: maxAttempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    8 * time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			*slept = append(*slept, d)
			mu.Unlock()
		},
	}
	return p, slept
}

func TestClientRetriesTransient(t *testing.T) {
	h, hits := flakyHandler(2, http.StatusServiceUnavailable, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, slept := fastPolicy(4)
	c := &Client{Base: ts.URL, Retry: p}
	var v HealthView
	status, err := c.do("GET", "/v1/ping", "", nil, &v)
	if err != nil || status != http.StatusOK {
		t.Fatalf("after retries: (%d, %v), want (200, nil)", status, err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}
	if got := c.Stats.View(); got.Retries != 2 || got.Recovered != 1 || got.RetrySuccessPct != 100 {
		t.Fatalf("stats = %+v, want 2 retries, 1 recovered, 100%%", got)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	// Exponential shape with ±20% jitter: first ≈ 1ms, second ≈ 2ms.
	if d := (*slept)[0]; d < 800*time.Microsecond || d > 1200*time.Microsecond {
		t.Fatalf("first backoff = %v, want ≈ 1ms ± 20%%", d)
	}
	if d := (*slept)[1]; d < 1600*time.Microsecond || d > 2400*time.Microsecond {
		t.Fatalf("second backoff = %v, want ≈ 2ms ± 20%%", d)
	}
}

func TestClientHonorsRetryAfterCapped(t *testing.T) {
	hdr := http.Header{}
	hdr.Set("Retry-After", "3")
	h, _ := flakyHandler(1, http.StatusTooManyRequests, hdr)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, slept := fastPolicy(4)
	p.MaxRetryAfter = 100 * time.Millisecond
	c := &Client{Base: ts.URL, Retry: p}
	status, err := c.do("GET", "/v1/ping", "", nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("after retry: (%d, %v), want (200, nil)", status, err)
	}
	// The server asked for 3s; the policy trusts it only up to its cap.
	if len(*slept) != 1 || (*slept)[0] != 100*time.Millisecond {
		t.Fatalf("slept %v, want exactly the 100ms Retry-After cap", *slept)
	}
}

func TestClientExhausts429(t *testing.T) {
	h, hits := flakyHandler(1<<30, http.StatusTooManyRequests, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, _ := fastPolicy(3)
	c := &Client{Base: ts.URL, Retry: p}
	status, err := c.do("GET", "/v1/ping", "", nil, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%v), want 429 after exhaustion", status, err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want MaxAttempts = 3", n)
	}
	got := c.Stats.View()
	if got.Exhausted429 != 1 || got.ExhaustedTransient != 0 {
		t.Fatalf("stats = %+v, want the failure classed as a 429 exhaustion", got)
	}
	// A final 429 is the server's decision, not a retry failure.
	if got.RetrySuccessPct != 100 {
		t.Fatalf("RetrySuccessPct = %v, want 100 (429 sheds excluded)", got.RetrySuccessPct)
	}
}

func TestClientNoRetry(t *testing.T) {
	h, hits := flakyHandler(1, http.StatusServiceUnavailable, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{Base: ts.URL, Retry: NoRetry()}
	status, _ := c.do("GET", "/v1/ping", "", nil, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the raw 503", status)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1 under NoRetry", n)
	}
}

func TestClientPerAttemptTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
	}))
	defer ts.Close()

	p, slept := fastPolicy(2)
	p.PerAttemptTimeout = 20 * time.Millisecond
	c := &Client{Base: ts.URL, Retry: p}
	start := time.Now()
	status, err := c.do("GET", "/v1/ping", "", nil, nil)
	if err == nil || status != 0 {
		t.Fatalf("hung server: (%d, %v), want a timeout error", status, err)
	}
	// Two 20ms attempts, no real sleeps: well under the 300ms hang.
	if wall := time.Since(start); wall > 250*time.Millisecond {
		t.Fatalf("took %v: the per-attempt timeout did not bound the attempts", wall)
	}
	if len(*slept) != 1 {
		t.Fatalf("slept %d times, want 1 (between two attempts)", len(*slept))
	}
	if got := c.Stats.View(); got.ExhaustedTransient != 1 {
		t.Fatalf("stats = %+v, want 1 transient exhaustion", got)
	}
}

// TestClientDefaultRetries pins the bug this PR fixes: a zero-value
// Client (no explicit policy) must survive a transient failure instead
// of surfacing it.
func TestClientDefaultRetries(t *testing.T) {
	h, _ := flakyHandler(1, http.StatusServiceUnavailable, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &Client{Base: ts.URL}
	status, err := c.do("GET", "/v1/ping", "", nil, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("zero-value client against one 503: (%d, %v), want (200, nil)", status, err)
	}
}
