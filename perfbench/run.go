package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

// provenance identifies what a result was measured on.
type provenance struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	Trace       int      `json:"trace"`
	NProc       int      `json:"nproc"`
	GoVersion   string   `json:"go"`
	Commit      string   `json:"commit"`
	SourceHash  string   `json:"sourceSha256"`
	ServerFlags []string `json:"serverFlags"`
}

func newProvenance(cfg config, w workload) provenance {
	flags := w.serverFlags("<tmp>/data")
	if flags == nil {
		flags = []string{}
	}
	return provenance{
		Workload:    w.name,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Trace:       cfg.trace,
		NProc:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Commit:      gitCommit(cfg.root),
		SourceHash:  sourceHash(cfg.root),
		ServerFlags: flags,
	}
}

// gitCommit is the checkout's commit, or "unknown" outside a git work
// tree (the source hash still identifies the code).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod file of the checkout,
// hidden directories (build output, VCS) excluded.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// run executes one benchmark run.
func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	res := &result{provenance: newProvenance(cfg, w)}
	res.header = fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%d", w.name, cfg.seed, cfg.seconds, cfg.trace)

	ds, err := newDataset(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	exp, err := expectations(ds, w.shapes)
	if err != nil {
		return nil, err
	}

	srv, setups, uploadGen, err := setUpRepeatedly(cfg, w, ds, tmp)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	ctl := newClient()
	defer ctl.CloseIdleConnections()
	if w.hot {
		if err := prime(srv, w, exp); err != nil {
			return nil, err
		}
	}

	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer()
	}
	var h0, h1 health
	if err := srv.getJSON(ctl, "/healthz", &h0); err != nil {
		return nil, err
	}
	ph, err := runPhase(srv, w, ds, exp, time.Duration(cfg.seconds)*time.Second, tr)
	if err != nil {
		return nil, err
	}
	if err := srv.getJSON(ctl, "/healthz", &h1); err != nil {
		return nil, err
	}
	mismatches := ph.mismatches
	mismatches = append(mismatches, verifyAfter(srv, ctl, w, ds, ph, uploadGen)...)
	if w.hot && h1.CacheMisses != h0.CacheMisses {
		mismatches = append(mismatches, fmt.Sprintf("hot-replay: %d cache misses in the timed phase, want 0", h1.CacheMisses-h0.CacheMisses))
	}
	var st dbStats
	if w.durable {
		if err := srv.getJSON(ctl, "/v1/databases/"+dbQuest+"/stats", &st); err != nil {
			return nil, err
		}
	}
	hwm, err := procHWM(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w (log: %s)", err, srv.log())
	}

	res.Correct = len(mismatches) == 0
	for _, m := range mismatches {
		res.note("MISMATCH %s", m)
	}
	res.Attempted, res.Failed = ph.tally.attempted, ph.tally.failed
	reasons := make([]string, 0, len(ph.tally.reasons))
	for k, n := range ph.tally.reasons {
		reasons = append(reasons, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(reasons)
	res.note("%-40s %14.4f %s  (%d of %d operations; %s)", "failed_frac", ph.tally.failedFrac(), "ratio", ph.tally.failed, ph.tally.attempted, strings.Join(reasons, " "))
	res.note("samples: %d mines, %d appends; setups %v s; host steal %.1f%%", len(ph.mineMs), len(ph.appendMs), setups, ph.stealPct)

	if cfg.trace == 0 {
		if err := endToEnd(res, ph, setups, hwm); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Traced run: client-side figures of the timed phase, then the layer
	// pass.
	if err := clientLayers(res, ph, h0, h1, st); err != nil {
		return nil, err
	}
	spans := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	lp := &layerPass{w: w, ds: ds, dir: tmp, tr: tr, res: res, seconds: cfg.seconds}
	if err := lp.run(); err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	if len(lp.mismatches) > 0 {
		res.Correct = false
		for _, m := range lp.mismatches {
			res.note("MISMATCH %s", m)
		}
	}
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.note("%d spans written to %s", tr.len(), spans)
	return res, nil
}

// setUps is how many times a run sets the server up. One set-up takes
// only tens of milliseconds, so setup_s is the median of several.
const setUps = 21

// setUpRepeatedly sets the server up setUps times. It keeps the last
// server running and returns it with every set-up time and the snapshot
// generation of its quest upload.
func setUpRepeatedly(cfg config, w workload, ds *dataset, tmp string) (*proc, []float64, uint64, error) {
	var setups []float64
	for i := 0; ; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("data-%d", i))
		s, d, gen, err := setUp(cfg, w, ds, dir)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
		if i == setUps-1 {
			return s, setups, gen, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, 0, fmt.Errorf("stop set-up server %d: %w (log: %s)", i+1, err, s.log())
		}
		os.RemoveAll(dir)
	}
}

// setUp launches reprod, waits for /readyz and uploads the workload's
// databases (warming their indexes). It returns the server, the set-up
// time and the snapshot generation of the uploaded quest database.
func setUp(cfg config, w workload, ds *dataset, dataDir string) (*proc, time.Duration, uint64, error) {
	start := time.Now()
	srv, err := startReprod(cfg.reprod, w.serverFlags(dataDir))
	if err != nil {
		return nil, 0, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	fail := func(err error) (*proc, time.Duration, uint64, error) {
		srv.stop()
		return nil, 0, 0, err
	}
	if err := srv.waitReady(c); err != nil {
		return fail(err)
	}
	var gen uint64
	var buf bytes.Buffer
	for _, name := range w.databases() {
		x := send(c, srv.base+"/v1/databases/"+name+"?format=tokens", "text/plain", []byte(ds.text(name)), &buf)
		if x.failed() {
			return fail(fmt.Errorf("upload %s: status %d, %v: %s", name, x.status, x.err, bytes.TrimSpace(x.body)))
		}
		if name == dbQuest {
			var info dbStats
			if err := json.Unmarshal(x.body, &info); err != nil {
				return fail(fmt.Errorf("upload %s: %w", name, err))
			}
			gen = info.SnapshotGeneration
		}
	}
	return srv, time.Since(start), gen, nil
}

// prime issues every shape once and checks it fully, so the timed phase
// replays cached results only.
func prime(srv *proc, w workload, exp map[string]want) error {
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for _, s := range w.shapes {
		x := send(c, srv.base+"/v1/databases/"+s.db+"/mine", "application/json", s.q.body(), &buf)
		if x.failed() {
			return fmt.Errorf("prime %s: status %d, %v", s.name, x.status, x.err)
		}
		if _, err := checkMine(x.body, s.q.streamed, exp[s.key]); err != nil {
			return fmt.Errorf("prime %s: %w", s.name, err)
		}
	}
	return nil
}

// liveSample is a reader response on ingest-mine kept for the post-run
// check against the database rebuilt at its generation.
type liveSample struct {
	gen uint64
	got want
}

// ack is one acknowledged append.
type ack struct {
	gen     uint64 // snapshot generation the append published
	records int    // records acknowledged so far, this one included
}

// phaseResult is what the timed phase measured.
type phaseResult struct {
	mineMs     []float64 // every successful mine, client round trip
	tracedMs   []float64 // the traced cycles' mines (trace runs)
	untracedMs []float64 // the untraced cycles' mines (trace runs)
	appendMs   []float64 // successful appends, from their due time
	lateMs     []float64 // how late each append was sent
	elapsed    time.Duration
	serverCPU  time.Duration
	clientCPU  time.Duration
	stealPct   float64 // host CPU time stolen by the hypervisor
	tally      tally
	mismatches []string
	live       []liveSample
	acks       []ack
}

// runPhase drives the workload for d: w.readers closed-loop readers and
// one open-loop writer, each on its own connection. With tr set, odd
// cycles of every reader record spans and even cycles do not, so the
// two halves give the tracing overhead under identical load.
func runPhase(srv *proc, w workload, ds *dataset, exp map[string]want, d time.Duration, tr *tracer) (*phaseResult, error) {
	ph := &phaseResult{}
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	steal0, total0 := hostTicks()
	start := time.Now()
	deadline := start.Add(d)

	var mu sync.Mutex // guards ph's slices
	var wg sync.WaitGroup
	for r := 0; r < w.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reader(srv, w, ds, exp, deadline, r, tr, ph, &mu)
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer(srv, w, ds, start, deadline, ph, &mu)
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	ph.serverCPU = cpu1 - cpu0
	ph.clientCPU = selfCPU() - self0
	if steal1, total1 := hostTicks(); total1 > total0 {
		ph.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	return ph, nil
}

// reader is one closed-loop client.
func reader(srv *proc, w workload, ds *dataset, exp map[string]want, deadline time.Time, r int, tr *tracer, ph *phaseResult, mu *sync.Mutex) {
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	n := len(w.shapes)
	rng := rand.New(rand.NewSource(ds.seed*1000 + int64(r)))
	var mine, traced, untraced []float64
	var bad []string
	var live []liveSample
	closedLoop(deadline, n, rng, func(j, k int) {
		s := w.shapes[k]
		var t *tracer
		if tr != nil && (j/n)%2 == 1 {
			t = tr
		}
		req := t.newReq()
		root := t.begin("loadgen.request", s.name, 0, req)
		rt := t.begin("http.roundtrip", s.name, root.ID, req)
		t0 := time.Now()
		x := send(c, srv.base+"/v1/databases/"+s.db+"/mine", "application/json", s.q.body(), &buf)
		lat := ms(time.Since(t0))
		t.end(rt)
		ph.tally.add(x)
		if x.failed() {
			t.end(root)
			return
		}
		mine = append(mine, lat)
		if tr != nil {
			if t != nil {
				traced = append(traced, lat)
			} else {
				untraced = append(untraced, lat)
			}
		}
		chk := t.begin("loadgen.check", s.name, root.ID, req)
		full := j%w.checkEvery == 0
		switch {
		case s.key == shTopK100Live.key && full:
			sum, got, err := decodeMine(x.body, false)
			if err == nil && sum.Truncated {
				err = errors.New("truncated")
			}
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", s.name, err))
			} else {
				live = append(live, liveSample{gen: sum.SnapshotGeneration, got: got})
			}
		case full:
			if _, err := checkMine(x.body, s.q.streamed, exp[s.key]); err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", s.name, err))
			}
		default:
			if err := checkComplete(x.body, s.q.streamed); err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", s.name, err))
			}
		}
		t.end(chk)
		t.end(root)
	})
	mu.Lock()
	defer mu.Unlock()
	ph.mineMs = append(ph.mineMs, mine...)
	ph.tracedMs = append(ph.tracedMs, traced...)
	ph.untracedMs = append(ph.untracedMs, untraced...)
	ph.mismatches = append(ph.mismatches, bad...)
	ph.live = append(ph.live, live...)
}

// writer is the open-loop append stream.
func writer(srv *proc, w workload, ds *dataset, start, deadline time.Time, ph *phaseResult, mu *sync.Mutex) {
	c := newClient()
	defer c.CloseIdleConnections()
	var buf, body bytes.Buffer
	url := srv.base + "/v1/databases/" + w.writerDB + "/append"
	acked := 0
	var acks []ack
	enc := json.NewEncoder(&body)
	rng := rand.New(rand.NewSource(ds.seed))
	due := schedule(start, deadline, time.Second/time.Duration(w.rate), rng)
	sched := openLoop(realClock{}, due, func(i int) bool {
		body.Reset()
		for k := 0; k < recordsPerAppend; k++ {
			rec := ds.record(i*recordsPerAppend + k)
			enc.Encode(struct {
				Label  string   `json:"label"`
				Events []string `json:"events"`
			}{rec.Label, rec.Events})
		}
		x := send(c, url, "application/x-ndjson", body.Bytes(), &buf)
		ph.tally.add(x)
		if x.failed() {
			return false
		}
		var info struct {
			SnapshotGeneration uint64 `json:"snapshotGeneration"`
			AppendedRecords    int    `json:"appendedRecords"`
		}
		if err := json.Unmarshal(x.body, &info); err != nil || info.AppendedRecords != recordsPerAppend {
			mu.Lock()
			ph.mismatches = append(ph.mismatches, fmt.Sprintf("append %d: bad acknowledgement %q", i, x.body))
			mu.Unlock()
			return false
		}
		acked += info.AppendedRecords
		acks = append(acks, ack{gen: info.SnapshotGeneration, records: acked})
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sched {
		ph.lateMs = append(ph.lateMs, ms(s.late))
		if s.ok {
			ph.appendMs = append(ph.appendMs, ms(s.latency))
		}
	}
	ph.acks = acks
}

// verifyAfter checks the state the phase left behind: every acknowledged
// record is visible, and on ingest-mine each sampled reader response
// equals top-k mined in-process on the database rebuilt at the
// response's generation.
func verifyAfter(srv *proc, c *http.Client, w workload, ds *dataset, ph *phaseResult, uploadGen uint64) []string {
	var bad []string
	var st dbStats
	if err := srv.getJSON(c, "/v1/databases/"+w.writerDB+"/stats", &st); err != nil {
		return []string{err.Error()}
	}
	base := strings.Count(ds.text(w.writerDB), "\n") // one sequence a line
	acked := 0
	if len(ph.acks) > 0 {
		acked = ph.acks[len(ph.acks)-1].records
	}
	if st.Stats.NumSequences != base+acked {
		bad = append(bad, fmt.Sprintf("%s holds %d sequences after the run, want %d base + %d acknowledged", w.writerDB, st.Stats.NumSequences, base, acked))
	}
	if len(ph.live) == 0 {
		return bad
	}
	records := map[uint64]int{uploadGen: 0}
	for _, a := range ph.acks {
		records[a.gen] = a.records
	}
	samples := append([]liveSample(nil), ph.live...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].gen < samples[j].gen })
	db, err := load(ds.quest)
	if err != nil {
		return append(bad, err.Error())
	}
	have := 0
	for _, s := range samples {
		n, ok := records[s.gen]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: generation %d matches no acknowledged append", shTopK100Live.name, s.gen))
			continue
		}
		if n > have {
			recs := make([]repro.Record, 0, n-have)
			for i := have; i < n; i++ {
				recs = append(recs, ds.record(i))
			}
			if _, err := db.Append(recs); err != nil {
				return append(bad, err.Error())
			}
			have = n
		}
		res, err := shTopK100Live.q.mine(db.Snapshot(), 1)
		if err != nil {
			return append(bad, err.Error())
		}
		if wantOf(res) != s.got {
			bad = append(bad, fmt.Sprintf("%s at generation %d (%d records appended) differs from the in-process result", shTopK100Live.name, s.gen, n))
		}
	}
	return bad
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(res *result, ph *phaseResult, setups []float64, hwm int64) error {
	p50, err := mustPercentile("mine latency", ph.mineMs, 0.5)
	if err != nil {
		return err
	}
	p90, err := mustPercentile("mine latency", ph.mineMs, 0.9)
	if err != nil {
		return err
	}
	a50, err := mustPercentile("append latency", ph.appendMs, 0.5)
	if err != nil {
		return err
	}
	a90, err := mustPercentile("append latency", ph.appendMs, 0.9)
	if err != nil {
		return err
	}
	ops := len(ph.mineMs) + len(ph.appendMs)
	res.set("setup_s", median(setups), "s")
	res.set("mine_p50_ms", p50, "ms")
	res.set("mine_p90_ms", p90, "ms")
	res.set("mine_rps", float64(len(ph.mineMs))/ph.elapsed.Seconds(), "req/s")
	res.set("append_p50_ms", a50, "ms")
	res.set("append_p90_ms", a90, "ms")
	res.set("server_peak_rss_mb", float64(hwm)/(1<<20), "MB")
	res.set("server_cpu_ms_per_op", ms(ph.serverCPU)/float64(ops), "ms")
	return nil
}

// clientLayers fills the per-layer metrics measured on the traced run's
// client side and from the server's own counters.
func clientLayers(res *result, ph *phaseResult, h0, h1 health, st dbStats) error {
	late, ok := percentile(ph.lateMs, 0.9)
	if !ok {
		late = maxOf(ph.lateMs)
	}
	ops := len(ph.mineMs) + len(ph.appendMs)
	res.set("loadgen.late_ms_p90", late, "ms")
	res.set("loadgen.cpu_ms_per_op", ms(ph.clientCPU)/float64(max(ops, 1)), "ms")
	hits, misses := h1.CacheHits-h0.CacheHits, h1.CacheMisses-h0.CacheMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	res.set("server.cache_hit_ratio", ratio, "ratio")
	if p := st.Persistence; p != nil && p.CommitRecords > 0 {
		res.set("wal.fsyncs_per_record", float64(p.CommitBatches)/float64(p.CommitRecords), "ratio")
	}
	tp, ut := median(ph.tracedMs), median(ph.untracedMs)
	if ut == 0 {
		return errors.New("traced run: no untraced cycle completed; raise --seconds")
	}
	res.set("trace.overhead_pct", 100*(tp-ut)/ut, "%")
	return nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
