package server

import (
	"bytes"
	"testing"
)

// TestCacheKeyCanonicalization: every option that changes what a mining
// run measures must land in the cache key; worker count and streaming
// shape must not (complete results are identical across both).
func TestCacheKeyCanonicalization(t *testing.T) {
	base := mineRequest{Closed: true, MinSupport: 10}
	key := func(q mineRequest) string { return q.cacheKey("db", 3, 1) }

	distinct := []mineRequest{
		base,
		{Closed: false, MinSupport: 10},
		{Closed: true, MinSupport: 11},
		{Closed: true, MinSupport: 10, MaxPatternLength: 4},
		{Closed: true, MinSupport: 10, MaxPatterns: 100},
		{Closed: true, MinSupport: 10, Instances: true},
		{TopK: 5},
	}
	seen := map[string]int{}
	for i, q := range distinct {
		k := key(q)
		if j, dup := seen[k]; dup {
			t.Errorf("requests %d and %d collide on key %q", j, i, k)
		}
		seen[k] = i
	}

	same := base
	same.Workers = 8
	same.Stream = true
	if key(same) != key(base) {
		t.Error("workers and stream must not change the cache key")
	}
	topk := mineRequest{TopK: 5}
	topkWorkers := mineRequest{TopK: 5, Workers: 8}
	if key(topk) != key(topkWorkers) {
		t.Error("workers must not change the top-k cache key (results are identical)")
	}
	if key(base) == base.cacheKey("db", 4, 1) {
		t.Error("upload generation must change the cache key")
	}
	if key(base) == base.cacheKey("db", 3, 2) {
		t.Error("snapshot generation must change the cache key")
	}
	if key(base) == base.cacheKey("other", 3, 1) {
		t.Error("database name must change the cache key")
	}
	// The two generations must not be collapsible into each other: upload
	// 1/snapshot 2 and upload 2/snapshot 1 are different data.
	if base.cacheKey("db", 1, 2) == base.cacheKey("db", 2, 1) {
		t.Error("upload and snapshot generations collide")
	}
}

// TestRetiredFastNextFieldIgnored: "disableFastNext" is no longer a
// request field. The decoder ignores it, so an old client's body still
// mines (200) and replays the entry of the same body without it.
func TestRetiredFastNextFieldIgnored(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)
	plain := mineJSON(t, h, "ex11", `{"closed":true,"minSupport":2}`)
	if plain.Cached {
		t.Fatal("first mine served from cache")
	}
	retired := mineJSON(t, h, "ex11", `{"closed":true,"minSupport":2,"disableFastNext":true}`)
	if !retired.Cached {
		t.Error("disableFastNext body missed the cache entry of the same body without it")
	}
	if got, want := mustJSON(t, retired.Patterns), mustJSON(t, plain.Patterns); !bytes.Equal(got, want) {
		t.Errorf("disableFastNext body returned different patterns:\n got %s\nwant %s", got, want)
	}
}
