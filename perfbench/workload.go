package main

import (
	"encoding/json"
	"fmt"

	"repro"
)

// query is one mining request, in the three forms the benchmark issues
// it: the JSON body sent to the server, the root-API call that must give
// the same patterns, and (in layers.go) the kernel call underneath.
type query struct {
	topK     int
	closed   bool
	minSup   int
	sem      repro.Semantics
	maxGap   int
	workers  int // request field; 0 leaves the server default
	streamed bool
}

// body renders the request as the server's mine endpoint takes it.
func (q query) body() []byte {
	m := map[string]any{"closed": q.closed}
	if q.topK > 0 {
		m["topK"] = q.topK
	} else {
		m["minSupport"] = q.minSup
	}
	if q.sem != repro.SemanticsRepetitive {
		m["semantics"] = q.sem.String()
	}
	if q.maxGap > 0 {
		m["maxGap"] = q.maxGap
	}
	if q.workers > 0 {
		m["workers"] = q.workers
	}
	if q.streamed {
		m["stream"] = true
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // a map of strings, bools and ints always marshals
	}
	return b
}

// mine runs the query in-process through the root API with the given
// worker count (results are identical at every count).
func (q query) mine(snap *repro.Snapshot, workers int) (*repro.Result, error) {
	if q.topK > 0 {
		return snap.MineTopKWith(q.topK, q.closed, repro.TopKOptions{Workers: workers})
	}
	opt := repro.Options{MinSupport: q.minSup, Semantics: q.sem, MaxGap: q.maxGap, Workers: workers}
	if q.closed {
		return snap.MineClosed(opt)
	}
	return snap.Mine(opt)
}

// shape is one request shape of a workload mix.
type shape struct {
	name string
	db   string
	q    query
	// key names the result the shape returns; a JSON shape and its
	// NDJSON twin share one.
	key string
}

// The request shapes. Cold-mine sends workers:1 because two workers per
// request for two clients on a 2-CPU host made closed10 spread from 25 to
// 71 ms. Ingest-mine's single reader sends workers:2 instead: a mine on
// one CPU left the other idle, and the per-CPU speed of a shared host then
// moved its latency by up to 40% from run to run; on both CPUs it moved
// by under 10%.
var (
	shTopK100  = shape{"topk100", dbQuest, query{topK: 100, closed: true, workers: 1}, "topk100"}
	shClosed10 = shape{"closed10", dbQuest, query{closed: true, minSup: 10, workers: 1}, "closed10"}
	shAll10    = shape{"all10", dbQuest, query{minSup: 10, workers: 1}, "all10"}
	shNonOv10  = shape{"nonoverlap10", dbQuest, query{minSup: 10, sem: repro.SemanticsNonOverlapping, workers: 1}, "nonoverlap10"}
	shGapped3  = shape{"gapped3", dbQuest200, query{minSup: 8, sem: repro.SemanticsGapped, maxGap: 3, workers: 1}, "gapped3"}

	shTop10          = shape{"top10", dbQuest, query{topK: 10, closed: true}, "top10"}
	shHotClosed10    = shape{"closed10", dbQuest, query{closed: true, minSup: 10}, "closed10"}
	shClosed10NDJSON = shape{"closed10-ndjson", dbQuest, query{closed: true, minSup: 10, streamed: true}, "closed10"}
	shAll6           = shape{"all6", dbQuest, query{minSup: 6}, "all6"}
	shAll6NDJSON     = shape{"all6-ndjson", dbQuest, query{minSup: 6, streamed: true}, "all6"}

	shTopK100Live = shape{"topk100-live", dbQuest, query{topK: 100, closed: true, workers: 2}, "topk100-live"}
)

// recordsPerAppend is the size of every append request: that many
// fresh-labelled records.
const recordsPerAppend = 2

// writeRate is ingest-mine's writer rate in append requests per second.
const writeRate = 10

// probeRate is the write probe's rate on cold-mine and hot-replay. Beside
// two mining readers an append waits for a CPU for anything from 0 to
// about 10 ms, so its latency spreads widely: at writeRate, on a 2-vCPU
// host, the p50 of one run's 200 appends moved by 7-8% between
// bootstrap resamples. Four times the samples halve that. The cost is about 8% of one CPU
// in the client, most of it the spin before each send (realClock).
const probeRate = 40

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// shapes is the reader mix; see closedLoop for the order readers
	// send it in.
	shapes  []shape
	readers int
	// rate is the writer's append requests per second.
	rate int
	// writerDB receives the open-loop append stream: the mined database
	// on ingest-mine; elsewhere the side database dbProbe, so the write
	// probe never touches what the readers mine.
	writerDB string
	// cacheOff starts the server with -cache -1; durable adds
	// -data-dir and -fsync always.
	cacheOff bool
	durable  bool
	// hot primes every result before timing; every timed mine must then
	// be a cache hit.
	hot bool
	// checkEvery is how often a reader fully decodes and compares a
	// response (every response when 1). The others are checked for
	// status and completeness only.
	checkEvery int
}

var workloads = []workload{
	{
		name:       "cold-mine",
		why:        "every request mines (cache off, workers 1): kernel, gapped miner and export dominate; p50 on repetitive shapes, p90 on gapped3",
		shapes:     []shape{shTopK100, shClosed10, shAll10, shNonOv10, shGapped3},
		readers:    2,
		rate:       probeRate,
		writerDB:   dbProbe,
		cacheOff:   true,
		checkEvery: 1,
	},
	{
		name:       "hot-replay",
		why:        "every request is a primed cache hit: server encode, cache and transport only; a kernel change must predict no change here",
		shapes:     []shape{shTop10, shHotClosed10, shClosed10NDJSON, shAll6, shAll6NDJSON},
		readers:    2,
		rate:       probeRate,
		writerDB:   dbProbe,
		hot:        true,
		checkEvery: 10,
	},
	{
		name:       "ingest-mine",
		why:        "durable fsync-always appends at a fixed rate beside top-k mining on the growing snapshot: WAL, publish and index extend",
		shapes:     []shape{shTopK100Live},
		readers:    1,
		rate:       writeRate,
		writerDB:   dbQuest,
		cacheOff:   true,
		durable:    true,
		checkEvery: 8,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// databases lists the databases the workload uploads at set-up.
func (w workload) databases() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, s := range w.shapes {
		add(s.db)
	}
	add(w.writerDB)
	return out
}

// serverFlags are the reprod flags of the workload, -addr excluded.
func (w workload) serverFlags(dataDir string) []string {
	var args []string
	if w.cacheOff {
		args = append(args, "-cache", "-1")
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	return args
}
