package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// newClient returns an HTTP client holding at most one connection, so
// each load-generator stream is one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// exchange is one request as the load generator saw it.
type exchange struct {
	status int
	err    error // transport error, or a failed body read
	body   []byte
}

// failed reports whether the exchange counts as a failed operation: a
// transport error or any non-2xx status, 429 and 503 included.
func (x exchange) failed() bool {
	return x.err != nil || x.status < 200 || x.status > 299
}

// reason classifies a failed exchange for the report.
func (x exchange) reason() string {
	if x.err != nil {
		return "transport"
	}
	return strconv.Itoa(x.status)
}

// send performs one POST and reads the body to the end into buf.
func send(c *http.Client, url, ctype string, body []byte, buf *bytes.Buffer) exchange {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.Do(req)
	if err != nil {
		return exchange{err: err}
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return exchange{status: resp.StatusCode, err: err, body: buf.Bytes()}
}

// tally counts operations attempted and failed, by failure reason.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

func (t *tally) add(x exchange) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if x.failed() {
		t.failed++
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[x.reason()]++
	}
}

// failedFrac is failed over attempted operations (0 when none ran).
func (t *tally) failedFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs. ok is false when
// fewer than minBeyond samples lie above it: such a percentile rests on
// a handful of outliers and is not reported.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// mustPercentile is percentile for a metric the run must report.
func mustPercentile(name string, xs []float64, q float64) (float64, error) {
	v, ok := percentile(xs, q)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond the %g quantile; raise --seconds", name, len(xs), minBeyond, q)
	}
	return v, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// clock abstracts time for the open-loop scheduler, so tests can stall a
// send without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// spinWindow is how long before a due time the scheduler stops sleeping
// and spins: a timer can fire up to a millisecond late, which would
// otherwise show up as generator lateness in every append's latency.
const spinWindow = 2 * time.Millisecond

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// scheduled is one open-loop send.
type scheduled struct {
	i       int
	due     time.Time
	latency time.Duration // from due time to completion
	late    time.Duration // from due time to the actual send
	ok      bool          // the send succeeded
}

// schedule returns the open loop's due times before until: one in each
// interval-long slot from start, at a uniformly random point of the slot.
// A fixed period would lock the sends to the phase of any periodic
// activity in the server (the Go runtime's 10 ms scheduler and network
// poller ticks among them) for a whole run, and with it each run's
// latency.
func schedule(start, until time.Time, interval time.Duration, rng *rand.Rand) []time.Time {
	var out []time.Time
	for slot := start; slot.Before(until); slot = slot.Add(interval) {
		if due := slot.Add(time.Duration(rng.Int63n(int64(interval)))); due.Before(until) {
			out = append(out, due)
		}
	}
	return out
}

// openLoop sends request i at due[i], one at a time. A send that overruns
// into the next due time delays the later ones; their latency is still
// measured from their due time, so a stall counts against every request
// it held up.
func openLoop(clk clock, due []time.Time, sendFn func(i int) (ok bool)) []scheduled {
	out := make([]scheduled, 0, len(due))
	for i, d := range due {
		clk.SleepUntil(d)
		sent := clk.Now()
		ok := sendFn(i)
		out = append(out, scheduled{i: i, due: d, late: sent.Sub(d), latency: clk.Now().Sub(d), ok: ok})
	}
	return out
}

// closedLoop issues requests back to back until deadline. Requests come
// in cycles that hold every shape once, in an order drawn from rng for
// each cycle: the mix stays equally weighted, while the shapes two
// clients run side by side change from cycle to cycle. (With one fixed
// order both clients' cycles last equally long on average, so their
// relative phase only random-walks, and whether the slowest shapes
// overlap is settled for a whole run.) A request started before the
// deadline runs to completion.
func closedLoop(deadline time.Time, nShapes int, rng *rand.Rand, do func(j, shape int)) {
	var order []int
	for j := 0; time.Now().Before(deadline); j++ {
		if j%nShapes == 0 {
			order = rng.Perm(nShapes)
		}
		do(j, order[j%nShapes])
	}
}
