package loadtest

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// Chaos metric names, counted in the injector's own registry so a load
// run can read back exactly how much fault injection it survived.
const (
	MetricChaos429   = "chaos_injected_429_total"
	MetricChaos503   = "chaos_injected_503_total"
	MetricChaosDelay = "chaos_injected_delay_total"
)

// ChaosConfig tunes the fault injector the load generator's -chaos mode
// puts on its HTTP client. Rates are per-request probabilities in [0,1].
type ChaosConfig struct {
	// Seed makes the injection sequence deterministic.
	Seed int64
	// Reject429 is the probability of answering 429 (Retry-After: 1)
	// without reaching the server.
	Reject429 float64
	// Fail503 is the probability of answering 503 without reaching the
	// server.
	Fail503 float64
	// LatencyRate is the probability of delaying a request by a uniform
	// duration in (0, LatencyMax].
	LatencyRate float64
	// LatencyMax bounds an injected delay (default 50ms).
	LatencyMax time.Duration
}

// Chaos is an http.RoundTripper that injects faults between a client and
// the daemon: the adversary the retry policy and chaos load runs are
// graded against. Injected answers take the daemon's own shapes (a 429
// carries Retry-After: 1; bodies are serve.WriteErr's {"error": …}
// envelope), so the client cannot tell them from real ones. Injection
// only hits /v1/ paths — health, metrics and debug reads pass through
// untouched, so probes and the harness's own bookkeeping are not
// confounded.
type Chaos struct {
	cfg ChaosConfig
	reg *obs.Registry

	mu  sync.Mutex
	rng *rand.Rand
}

// NewChaos builds an injector in front of http.DefaultTransport.
func NewChaos(cfg ChaosConfig) *Chaos {
	if cfg.LatencyMax <= 0 {
		cfg.LatencyMax = 50 * time.Millisecond
	}
	return &Chaos{cfg: cfg, reg: obs.NewRegistry(), rng: rand.New(rand.NewSource(cfg.Seed))}
}

// counts snapshots the three counters; a nil injector counts nothing.
func (c *Chaos) counts() (n429, n503, delays int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.reg.Counter(MetricChaos429).Value(), c.reg.Counter(MetricChaos503).Value(),
		c.reg.Counter(MetricChaosDelay).Value()
}

// roll draws the three injection decisions atomically, keeping the
// sequence deterministic under concurrent requests (order of departure
// still varies, but each draw is well-defined).
func (c *Chaos) roll() (r429, r503 bool, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r429 = c.rng.Float64() < c.cfg.Reject429
	r503 = c.rng.Float64() < c.cfg.Fail503
	if c.rng.Float64() < c.cfg.LatencyRate {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.LatencyMax))) + 1
	}
	return r429, r503, delay
}

// RoundTrip implements http.RoundTripper.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/v1/") {
		return http.DefaultTransport.RoundTrip(req)
	}
	r429, r503, delay := c.roll()
	if delay > 0 {
		c.reg.Counter(MetricChaosDelay).Inc()
		time.Sleep(delay)
	}
	switch {
	case r429:
		c.reg.Counter(MetricChaos429).Inc()
		return injected(req, http.StatusTooManyRequests, "chaos: injected backpressure"), nil
	case r503:
		c.reg.Counter(MetricChaos503).Inc()
		return injected(req, http.StatusServiceUnavailable, "chaos: injected outage"), nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

// injected answers req without sending it, as the daemon would.
func injected(req *http.Request, status int, msg string) *http.Response {
	if req.Body != nil {
		req.Body.Close()
	}
	rec := httptest.NewRecorder()
	if status == http.StatusTooManyRequests {
		rec.Header().Set("Retry-After", "1")
	}
	serve.WriteErr(rec, status, "%s", msg)
	resp := rec.Result()
	resp.Request = req
	return resp
}
