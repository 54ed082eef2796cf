package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/gapped"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// dbLive is the layer pass's stand-in for ingest-mine's growing database:
// quest plus the records one ingest-mine timed phase appends.
const dbLive = "live"

// layerReps is how many times the layer pass repeats each mining call
// and each index build and store create; per-layer times are medians.
// writeOps is how many of the cheaper appends, commits and index extends
// it times.
const (
	layerReps = 5
	writeOps  = 40
)

// layerPass times calls into each module's public functions, one at a
// time with nothing else running, on the run's generated inputs. Every
// trace run reports every per-layer metric: the server layer serves all
// shapes under the workload's own server configuration, and the layers
// below it do not depend on the workload.
type layerPass struct {
	w          workload
	ds         *dataset
	seconds    int
	dir        string
	tr         *tracer
	res        *result
	mismatches []string

	texts map[string]string
}

// layerShapes is the workload's shapes followed by every other
// workload's shapes not already named.
func layerShapes(w workload) []shape {
	seen := map[string]bool{}
	var out []shape
	add := func(ss []shape) {
		for _, s := range ss {
			if !seen[s.name] {
				seen[s.name] = true
				if s.key == shTopK100Live.key {
					s.db = dbLive
				}
				out = append(out, s)
			}
		}
	}
	add(w.shapes)
	for _, o := range workloads {
		add(o.shapes)
	}
	return out
}

func (lp *layerPass) run() error {
	var live strings.Builder
	live.WriteString(lp.ds.quest)
	for i := 0; i < recordsPerAppend*writeRate*lp.seconds; i++ {
		r := lp.ds.record(i)
		live.WriteString(r.Label + ": " + strings.Join(r.Events, " ") + "\n")
	}
	lp.texts = map[string]string{dbQuest: lp.ds.quest, dbQuest200: lp.ds.quest200, dbLive: live.String()}
	if err := lp.mineLayers(); err != nil {
		return err
	}
	if err := lp.seqLayer(); err != nil {
		return err
	}
	return lp.writeLayers()
}

// Headers carrying the client's span identity to the timing handler.
const (
	hdrReq   = "X-Perfbench-Req"
	hdrSpan  = "X-Perfbench-Span"
	hdrShape = "X-Perfbench-Shape"
)

// timingHandler wraps the server's handler and times each request inside
// the process, nesting a server span under the client's round trip.
type timingHandler struct {
	h    http.Handler
	tr   *tracer
	mu   sync.Mutex
	last struct {
		req   int64
		dur   time.Duration
		alloc uint64
	}
}

func (th *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := th.tr.begin("server.serve", r.Header.Get(hdrShape), parent, req)
	t0 := time.Now()
	th.h.ServeHTTP(w, r)
	d := time.Since(t0)
	th.tr.end(sp)
	runtime.ReadMemStats(&m1)
	th.mu.Lock()
	th.last.req, th.last.dur, th.last.alloc = req, d, m1.TotalAlloc-m0.TotalAlloc
	th.mu.Unlock()
}

// loopbackServer is server.New(...).Handler() behind timingHandler on a
// loopback port, configured like the workload's reprod.
type loopbackServer struct {
	srv    *server.Server
	th     *timingHandler
	hs     *http.Server
	served chan error
	base   string
	c      *http.Client
	buf    bytes.Buffer
}

// startServer starts the in-process server and uploads the layer pass's
// databases to it.
func (lp *layerPass) startServer() (*loopbackServer, error) {
	cfg := server.Config{}
	if lp.w.cacheOff {
		cfg.CacheSize = -1
	}
	if lp.w.durable {
		cfg.DataDir = filepath.Join(lp.dir, "layer-data")
		cfg.Sync = repro.SyncAlways
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &loopbackServer{srv: srv, th: &timingHandler{h: srv.Handler(), tr: lp.tr}, served: make(chan error, 1), base: "http://" + ln.Addr().String(), c: newClient()}
	ls.hs = &http.Server{Handler: ls.th}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	for _, name := range []string{dbQuest, dbQuest200, dbLive} {
		x := send(ls.c, ls.base+"/v1/databases/"+name+"?format=tokens", "text/plain", []byte(lp.texts[name]), &ls.buf)
		if x.failed() {
			ls.close()
			return nil, fmt.Errorf("upload %s: status %d, %v", name, x.status, x.err)
		}
	}
	return ls, nil
}

func (ls *loopbackServer) close() {
	ls.c.CloseIdleConnections()
	ls.hs.Shutdown(context.Background())
	<-ls.served
	ls.srv.Close()
}

// mine sends one mine request and returns the client round trip, the
// handler's own time and the bytes allocated while it ran.
func (ls *loopbackServer) mine(tr *tracer, s shape) (rt, serve time.Duration, alloc uint64, x exchange) {
	req := tr.newReq()
	sp := tr.begin("http.roundtrip", s.name, 0, req)
	hreq, err := http.NewRequest(http.MethodPost, ls.base+"/v1/databases/"+s.db+"/mine", bytes.NewReader(s.q.body()))
	if err != nil {
		return 0, 0, 0, exchange{err: err}
	}
	hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	hreq.Header.Set(hdrSpan, strconv.FormatInt(sp.ID, 10))
	hreq.Header.Set(hdrShape, s.name)
	t0 := time.Now()
	resp, err := ls.c.Do(hreq)
	if err != nil {
		return 0, 0, 0, exchange{err: err}
	}
	ls.buf.Reset()
	_, err = ls.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rt = time.Since(t0)
	tr.end(sp)
	ls.th.mu.Lock()
	defer ls.th.mu.Unlock()
	if ls.th.last.req != req {
		return 0, 0, 0, exchange{err: errors.New("timing handler missed the request")}
	}
	return rt, ls.th.last.dur, ls.th.last.alloc, exchange{status: resp.StatusCode, err: err, body: ls.buf.Bytes()}
}

// timed runs fn after a full collection, so garbage left by the previous
// call is not charged to this one, and returns its duration and the heap
// objects it allocated.
func (lp *layerPass) timed(name, shape string, fn func() error) (time.Duration, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := lp.tr.begin(name, shape, 0, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	lp.tr.end(sp)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, err
}

// mineLayers measures every shape through the server layer and every
// distinct mining call through repro, core and gapped. For each shape the
// calls of all layers alternate within each repetition, so the layers a
// self time subtracts were timed under the same host conditions.
func (lp *layerPass) mineLayers() error {
	snaps := map[string]*repro.Snapshot{}
	dbs := map[string]*seq.DB{}
	ixs := map[string]*seq.Index{}
	for name, text := range lp.texts {
		db, err := load(text)
		if err != nil {
			return err
		}
		snaps[name] = db.Snapshot()
		snaps[name].Warm()
		if dbs[name], err = seq.ParseString(text, seq.FormatTokens); err != nil {
			return err
		}
		ixs[name] = seq.NewIndexWith(dbs[name], seq.IndexOptions{FastNext: true})
	}
	ls, err := lp.startServer()
	if err != nil {
		return err
	}
	defer ls.close()
	shapes := layerShapes(lp.w)
	if lp.w.hot {
		for _, s := range shapes {
			if _, _, _, x := ls.mine(lp.tr, s); x.failed() {
				return fmt.Errorf("prime %s: status %d, %v", s.name, x.status, x.err)
			}
		}
	}

	reproMs := map[string]float64{}
	wants := map[string]want{}
	for _, s := range shapes {
		_, done := wants[s.key]
		mineCall := !done // the first shape of a key also times the mining layers
		gap := s.q.sem == repro.SemanticsGapped
		kernelLayer := "core.mine"
		if gap {
			kernelLayer = "gapped.mine"
		}
		var reproT, kernelT, kernelAllocs, serveT, transportT, allocs []float64
		var stats core.MineStats
		var kernelN, size int
		for r := 0; r < layerReps; r++ {
			if mineCall {
				var res *repro.Result
				d, _, err := lp.timed("repro.mine", s.key, func() (err error) {
					res, err = s.q.mine(snaps[s.db], s.q.workers)
					return err
				})
				if err != nil {
					return fmt.Errorf("repro %s: %w", s.key, err)
				}
				reproT = append(reproT, ms(d))
				wants[s.key] = wantOf(res)

				d, n, err := lp.timed(kernelLayer, s.key, func() error {
					if gap {
						res, err := gapped.Mine(dbs[s.db], gapped.Options{MinSupport: s.q.minSup, MaxGap: s.q.maxGap})
						if err == nil {
							kernelN = len(res.Patterns)
						}
						return err
					}
					res, err := coreMine(s.q, ixs[s.db])
					if err == nil {
						kernelN, stats = res.NumPatterns, res.Stats
					}
					return err
				})
				if err != nil {
					return fmt.Errorf("%s %s: %w", kernelLayer, s.key, err)
				}
				kernelT = append(kernelT, ms(d))
				kernelAllocs = append(kernelAllocs, float64(n))
			}

			runtime.GC()
			rt, serve, alloc, x := ls.mine(lp.tr, s)
			if x.failed() {
				return fmt.Errorf("%s: status %d, %v: %s", s.name, x.status, x.err, bytes.TrimSpace(x.body))
			}
			if r == 0 {
				if _, err := checkMine(x.body, s.q.streamed, wants[s.key]); err != nil {
					lp.mismatches = append(lp.mismatches, fmt.Sprintf("layer pass %s: %v", s.name, err))
				}
			}
			serveT = append(serveT, ms(serve))
			transportT = append(transportT, ms(rt-serve))
			allocs = append(allocs, float64(alloc))
			size = len(x.body)
		}

		if mineCall {
			if kernelN != wants[s.key].n {
				lp.mismatches = append(lp.mismatches, fmt.Sprintf("layer pass %s: kernel found %d patterns, repro %d", s.key, kernelN, wants[s.key].n))
			}
			reproMs[s.key] = median(reproT)
			kernel := median(kernelT)
			lp.res.set("repro.mine_ms."+s.key, reproMs[s.key], "ms")
			lp.res.set("repro.export_ms."+s.key, reproMs[s.key]-kernel, "ms")
			if gap {
				lp.res.set("gapped.mine_ms."+s.key, kernel, "ms")
			} else {
				lp.res.set("core.mine_ms."+s.key, kernel, "ms")
				lp.res.set("core.nodes_visited."+s.key, float64(stats.NodesVisited), "count")
				lp.res.set("core.insgrow_calls."+s.key, float64(stats.INSgrowCalls), "count")
				lp.res.set("core.closure_chain_growths."+s.key, float64(stats.ClosureChainGrowths), "count")
				lp.res.set("core.emit_ratio."+s.key, float64(kernelN)/float64(max(stats.NodesVisited, 1)), "ratio")
				lp.res.set("core.allocs_per_op."+s.key, median(kernelAllocs), "count")
			}
		}
		serve := median(serveT)
		self := serve
		if !lp.w.hot { // a hit never calls into repro
			self -= reproMs[s.key]
		}
		lp.res.set("http.transport_ms."+s.name, median(transportT), "ms")
		lp.res.set("server.serve_ms."+s.name, serve, "ms")
		lp.res.set("server.self_ms."+s.name, self, "ms")
		lp.res.set("server.resp_bytes."+s.name, float64(size), "bytes")
		lp.res.set("server.alloc_bytes_per_op."+s.name, median(allocs), "bytes")
	}
	return nil
}

// coreMine is the kernel call the root API makes for q, with the
// request's worker count.
func coreMine(q query, ix *seq.Index) (*core.Result, error) {
	workers := max(q.workers, 1)
	if q.topK > 0 {
		return core.MineTopKParallel(context.Background(), ix, q.topK, q.closed, 0, workers)
	}
	opt := core.Options{MinSupport: q.minSup, Closed: q.closed}
	if q.sem == repro.SemanticsNonOverlapping {
		opt.Semantics = core.NonOverlapping
	}
	if workers > 1 {
		return core.MineParallel(ix, opt, workers)
	}
	return core.Mine(ix, opt)
}

// seqLayer times seq.NewIndexWith on quest and Index.Extend by one
// append's records.
func (lp *layerPass) seqLayer() error {
	db, err := seq.ParseString(lp.ds.quest, seq.FormatTokens)
	if err != nil {
		return err
	}
	var times, allocs []float64
	var ix *seq.Index
	for r := 0; r < layerReps; r++ {
		d, n, _ := lp.timed("seq.index_build", "", func() error {
			ix = seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
			return nil
		})
		times = append(times, ms(d))
		allocs = append(allocs, float64(n))
	}
	lp.res.set("seq.index_build_ms", median(times), "ms")
	lp.res.set("seq.index_build_allocs", median(allocs), "count")
	lp.res.set("seq.fastnext_bytes", float64(ix.FastNextBytes()), "bytes")

	// Extend a sealed copy, as a store publish does, so db's dictionary
	// is never interned into.
	grown := db.Clone().Extend()
	for k := 0; k < recordsPerAppend; k++ {
		r := lp.ds.record(k)
		grown.Add(r.Label, r.Events)
	}
	times = times[:0]
	for r := 0; r < writeOps; r++ {
		sp := lp.tr.begin("seq.extend", "", 0, 0)
		t0 := time.Now()
		ix.Extend(grown, nil)
		d := time.Since(t0)
		lp.tr.end(sp)
		times = append(times, ms(d))
	}
	lp.res.set("seq.extend_ms", median(times), "ms")
	return nil
}

// writeLayers times the write path below the server: store.Append in
// memory, store.Create and a durable Append under fsync=always, and the
// WAL's Commit.
func (lp *layerPass) writeLayers() error {
	db, err := seq.ParseString(lp.ds.quest, seq.FormatTokens)
	if err != nil {
		return err
	}
	batch := func(i int) []store.Record {
		out := make([]store.Record, recordsPerAppend)
		for k := range out {
			r := lp.ds.record(i*recordsPerAppend + k)
			out[k] = store.Record{Label: r.Label, Events: r.Events}
		}
		return out
	}
	appendMs := func(name string, st *store.Store) ([]float64, error) {
		st.Current().Index(false) // warm, as the server's upload does
		var times []float64
		for i := 0; i < writeOps; i++ {
			recs := batch(i)
			sp := lp.tr.begin(name, "", 0, 0)
			t0 := time.Now()
			_, err := st.Append(recs, true)
			d := time.Since(t0)
			lp.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			times = append(times, ms(d))
		}
		return times, nil
	}

	times, err := appendMs("store.append", store.FromDB(db.Clone(), store.Options{}))
	if err != nil {
		return err
	}
	lp.res.set("store.append_ms", median(times), "ms")

	var creates []float64
	var st *store.Store
	for r := 0; r < layerReps; r++ {
		src := db.Clone()
		sp := lp.tr.begin("store.create", "", 0, 0)
		t0 := time.Now()
		s, err := store.Create(filepath.Join(lp.dir, fmt.Sprintf("create-%d", r)), src, store.Options{SyncPolicy: wal.SyncAlways})
		d := time.Since(t0)
		lp.tr.end(sp)
		if err != nil {
			return fmt.Errorf("store.Create: %w", err)
		}
		creates = append(creates, ms(d))
		if st != nil {
			st.Close()
		}
		st = s
	}
	defer st.Close()
	lp.res.set("store.create_ms", median(creates), "ms")
	times, err = appendMs("store.durable_append", st)
	if err != nil {
		return err
	}
	lp.res.set("store.durable_append_ms", median(times), "ms")
	if _, set := lp.res.Metrics["wal.fsyncs_per_record"]; !set {
		d := st.Durability()
		lp.res.set("wal.fsyncs_per_record", float64(d.Fsyncs)/float64(max(d.CommitRecords, 1)), "ratio")
	}

	l, err := wal.Open(filepath.Join(lp.dir, "commit.wal"), wal.Options{Policy: wal.SyncAlways, CommitMaxBatch: wal.DefaultCommitMaxBatch})
	if err != nil {
		return err
	}
	payload := []byte(lp.texts[dbLive][len(lp.ds.quest):])
	payload = payload[:min(len(payload), 256)]
	times = times[:0]
	for i := 0; i < writeOps; i++ {
		sp := lp.tr.begin("wal.commit", "", 0, 0)
		t0 := time.Now()
		_, err := l.Commit(payload)
		d := time.Since(t0)
		lp.tr.end(sp)
		if err != nil {
			l.Close()
			return fmt.Errorf("wal.Commit: %w", err)
		}
		times = append(times, ms(d))
	}
	if err := l.Close(); err != nil {
		return err
	}
	lp.res.set("wal.commit_ms", median(times), "ms")
	return nil
}
