package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ParseRetryAfter parses an RFC 9110 Retry-After header value, which is
// either delay-seconds ("120") or an HTTP-date ("Fri, 08 Aug 2026
// 17:30:00 GMT"). It returns the wait relative to now and whether the
// value parsed at all. A date in the past (or "0") parses successfully
// to a zero wait — the server said "now". Callers still clamp the result
// to their own cap: a parsed value is the server's request, not an
// obligation.
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// MaxRetryAfterSeconds bounds every Retry-After a worker or router
// emits, including one relayed from a worker's 429.
const MaxRetryAfterSeconds = 30

// RetryAfterSeconds estimates when a shed or bounced client should come
// back: backlog jobs × mean service time over capacity parallel slots
// (at least 1), rounded up and clamped to [1, MaxRetryAfterSeconds] so
// the header is never a lie in either direction.
func RetryAfterSeconds(backlog, capacity int, mean time.Duration) int {
	if capacity < 1 {
		capacity = 1
	}
	est := time.Duration(backlog) * mean / time.Duration(capacity)
	secs := int((est + time.Second - 1) / time.Second)
	return min(max(secs, 1), MaxRetryAfterSeconds)
}
