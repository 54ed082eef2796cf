package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// leadFlight registers the test as the leader of a cold mine of body on
// database name, as a first request that missed the cache would be.
func leadFlight(t *testing.T, srv *Server, name, body string) (string, mineRequest, *flight) {
	t.Helper()
	e, ok := srv.get(name)
	if !ok {
		t.Fatalf("no database %q", name)
	}
	var q mineRequest
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	if err := q.validate(); err != nil {
		t.Fatal(err)
	}
	key := q.cacheKey(e.name, e.generation, e.db.Snapshot().Generation())
	out, fl, lead := srv.cache.lookup(key)
	if out != nil || fl == nil || !lead {
		t.Fatalf("lookup of a cold key: out=%v flight=%v lead=%v", out, fl, lead)
	}
	return key, q, fl
}

// mineOutcomeOf runs q directly, as the flight's leader would.
func mineOutcomeOf(t *testing.T, srv *Server, name string, q *mineRequest) *mineOutcome {
	t.Helper()
	e, _ := srv.get(name)
	out, err := srv.runMine(context.Background(), e.db.Snapshot(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitMisses blocks until the cache has counted n misses: every waiter
// counts one when it joins a flight.
func waitMisses(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, misses, _ := srv.cache.counters(); misses >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined the flight (want %d misses)", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// startMine serves one mine request in the background; the returned
// channel closes when the handler has returned.
func startMine(h http.Handler, ctx context.Context, body string) (*httptest.ResponseRecorder, chan struct{}) {
	req := httptest.NewRequest("POST", "/v1/databases/ex/mine", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	return rec, done
}

// checkMined asserts rec is a 200 JSON mine response with the expected
// patterns and cached flag.
func checkMined(t *testing.T, rec *httptest.ResponseRecorder, want []byte, cached bool) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp mineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached != cached {
		t.Errorf("cached = %v, want %v", resp.Cached, cached)
	}
	if got := mustJSON(t, resp.Patterns); !bytes.Equal(got, want) {
		t.Errorf("patterns differ from the library's")
	}
}

const coalesceBody = `{"closed":true,"minSupport":2}`

// TestCoalescedMinesShareOneRun: identical cold mines that arrive while
// one runs wait for it and are served its result, JSON and NDJSON alike,
// without taking a semaphore slot of their own.
func TestCoalescedMinesShareOneRun(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrentMines: 1})
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)
	want := mustJSON(t, expectedPatterns(t, example11, repro.Chars, repro.Options{MinSupport: 2}, true))

	key, q, fl := leadFlight(t, srv, "ex", coalesceBody)
	srv.mineSem <- struct{}{} // the leader's slot: any second run would get 429
	jsonRec, jsonDone := startMine(h, context.Background(), coalesceBody)
	workersRec, workersDone := startMine(h, context.Background(), `{"closed":true,"minSupport":2,"workers":2}`)
	streamRec, streamDone := startMine(h, context.Background(), `{"closed":true,"minSupport":2,"stream":true}`)
	waitMisses(t, srv, 4)

	srv.cache.complete(key, fl, mineOutcomeOf(t, srv, "ex", &q))
	<-jsonDone
	<-workersDone
	<-streamDone
	<-srv.mineSem

	checkMined(t, jsonRec, want, true)
	checkMined(t, workersRec, want, true)
	patterns, summary := decodeNDJSON(t, streamRec.Body.String())
	if summary == nil || !summary.Cached {
		t.Errorf("streamed waiter not served the shared run: %+v", summary)
	}
	if got := mustJSON(t, patterns); !bytes.Equal(got, want) {
		t.Error("streamed waiter's patterns differ from the library's")
	}
	if hits, _, size := srv.cache.counters(); hits != 0 || size != 1 {
		t.Errorf("cache hits=%d size=%d, want 0 and 1", hits, size)
	}
}

// TestCoalescedWaitersMineAfterUnsharableRun: a leader that ends without a
// complete result (an error, an abort, a truncated run) shares nothing;
// its waiters each mine for themselves.
func TestCoalescedWaitersMineAfterUnsharableRun(t *testing.T) {
	for _, truncated := range []bool{false, true} {
		srv := mustNew(t, Config{})
		h := srv.Handler()
		upload(t, h, "ex", "chars", example11)
		want := mustJSON(t, expectedPatterns(t, example11, repro.Chars, repro.Options{MinSupport: 2}, true))

		key, q, fl := leadFlight(t, srv, "ex", coalesceBody)
		a, aDone := startMine(h, context.Background(), coalesceBody)
		b, bDone := startMine(h, context.Background(), coalesceBody)
		waitMisses(t, srv, 3)
		var out *mineOutcome
		if truncated {
			out = mineOutcomeOf(t, srv, "ex", &q)
			res := *out.result
			res.Truncated = true
			out.result = &res
		}
		srv.cache.complete(key, fl, out)
		<-aDone
		<-bDone
		checkMined(t, a, want, false)
		checkMined(t, b, want, false)
		// The waiters' own complete runs are cached as usual.
		checkMined(t, doJSON(t, h, "POST", "/v1/databases/ex/mine", coalesceBody), want, true)
		srv.Close()
	}
}

// TestCoalescedWaiterCancelDoesNotFailOthers: a waiter whose client goes
// away, or whose mine timeout expires, stops waiting with a 503; the other
// waiters keep waiting and get the shared result.
func TestCoalescedWaiterCancelDoesNotFailOthers(t *testing.T) {
	srv := mustNew(t, Config{})
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)
	want := mustJSON(t, expectedPatterns(t, example11, repro.Chars, repro.Options{MinSupport: 2}, true))

	key, q, fl := leadFlight(t, srv, "ex", coalesceBody)
	ctx, cancel := context.WithCancel(context.Background())
	gone, goneDone := startMine(h, ctx, coalesceBody)
	kept, keptDone := startMine(h, context.Background(), coalesceBody)
	waitMisses(t, srv, 3)
	cancel()
	<-goneDone
	if gone.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled waiter: status %d, want 503", gone.Code)
	}
	select {
	case <-keptDone:
		t.Fatalf("a waiter returned when another one was cancelled: %d %s", kept.Code, kept.Body)
	default:
	}
	srv.cache.complete(key, fl, mineOutcomeOf(t, srv, "ex", &q))
	<-keptDone
	checkMined(t, kept, want, true)

	// The mine timeout bounds a wait like it bounds a run.
	slow := mustNew(t, Config{MineTimeout: 20 * time.Millisecond})
	defer slow.Close()
	sh := slow.Handler()
	upload(t, sh, "ex", "chars", example11)
	key, q, fl = leadFlight(t, slow, "ex", coalesceBody)
	rec := doJSON(t, sh, "POST", "/v1/databases/ex/mine", coalesceBody)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "timed out") {
		t.Errorf("waiter past the mine timeout: %d %s, want 503 timed out", rec.Code, rec.Body)
	}
	slow.cache.complete(key, fl, mineOutcomeOf(t, slow, "ex", &q))
}

// TestCoalescingOffWithoutCache: a disabled cache never coalesces, so
// every request mines.
func TestCoalescingOffWithoutCache(t *testing.T) {
	srv := mustNew(t, Config{CacheSize: -1})
	defer srv.Close()
	if out, fl, lead := srv.cache.lookup("k"); out != nil || fl != nil || lead {
		t.Fatalf("disabled cache: out=%v flight=%v lead=%v", out, fl, lead)
	}
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)
	want := mustJSON(t, expectedPatterns(t, example11, repro.Chars, repro.Options{MinSupport: 2}, true))
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 4)
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = doJSON(t, h, "POST", "/v1/databases/ex/mine", coalesceBody)
		}()
	}
	wg.Wait()
	for _, rec := range recs {
		checkMined(t, rec, want, false)
	}
}
