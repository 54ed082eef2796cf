package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"

	"repro"
)

// want is the expected outcome of a mine: the pattern count and a digest
// of the patterns in emission order.
type want struct {
	n      int
	digest uint64
}

// patternDigest hashes patterns in order, events and support included.
type patternDigest struct {
	h   hash.Hash64
	n   int
	buf []byte
}

func newPatternDigest() *patternDigest { return &patternDigest{h: fnv.New64a()} }

func (d *patternDigest) add(events []string, support int) {
	d.buf = d.buf[:0]
	for _, e := range events {
		d.buf = append(d.buf, e...)
		d.buf = append(d.buf, 0)
	}
	d.buf = strconv.AppendInt(d.buf, int64(support), 10)
	d.buf = append(d.buf, '\n')
	d.h.Write(d.buf)
	d.n++
}

func (d *patternDigest) want() want { return want{n: d.n, digest: d.h.Sum64()} }

func wantOf(res *repro.Result) want {
	d := newPatternDigest()
	for _, p := range res.Patterns {
		d.add(p.Events, p.Support)
	}
	return d.want()
}

// The wire forms the checker decodes; see internal/server/types.go.
type (
	wirePattern struct {
		Events  []string `json:"events"`
		Support int      `json:"support"`
	}
	wireSummary struct {
		NumPatterns        int    `json:"numPatterns"`
		Truncated          bool   `json:"truncated"`
		SnapshotGeneration uint64 `json:"snapshotGeneration"`
	}
	wireResponse struct {
		wireSummary
		Patterns []wirePattern `json:"patterns"`
	}
	wireLine struct {
		Pattern *wirePattern `json:"pattern"`
		Summary *wireSummary `json:"summary"`
	}
)

// decodeMine fully decodes a mine response body, JSON or NDJSON, into its
// summary and pattern digest.
func decodeMine(body []byte, ndjson bool) (wireSummary, want, error) {
	d := newPatternDigest()
	if !ndjson {
		var r wireResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return wireSummary{}, want{}, fmt.Errorf("decode response: %w", err)
		}
		for _, p := range r.Patterns {
			d.add(p.Events, p.Support)
		}
		return r.wireSummary, d.want(), nil
	}
	var sum *wireSummary
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if sum != nil {
			return wireSummary{}, want{}, errors.New("NDJSON line after the summary line")
		}
		var l wireLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return wireSummary{}, want{}, fmt.Errorf("decode NDJSON line %d: %w", d.n+1, err)
		}
		switch {
		case l.Pattern != nil:
			d.add(l.Pattern.Events, l.Pattern.Support)
		case l.Summary != nil:
			sum = l.Summary
		default:
			return wireSummary{}, want{}, fmt.Errorf("NDJSON line %d is neither pattern nor summary", d.n+1)
		}
	}
	if err := sc.Err(); err != nil {
		return wireSummary{}, want{}, fmt.Errorf("read NDJSON: %w", err)
	}
	if sum == nil {
		return wireSummary{}, want{}, errors.New("NDJSON stream has no summary line (truncated)")
	}
	return *sum, d.want(), nil
}

// checkMine fully decodes a body and compares it with the expected result.
func checkMine(body []byte, ndjson bool, w want) (wireSummary, error) {
	sum, got, err := decodeMine(body, ndjson)
	if err != nil {
		return sum, err
	}
	if sum.Truncated {
		return sum, errors.New("response is truncated")
	}
	if sum.NumPatterns != got.n {
		return sum, fmt.Errorf("summary reports %d patterns, body holds %d", sum.NumPatterns, got.n)
	}
	if got != w {
		return sum, fmt.Errorf("patterns differ from the in-process result: got %d patterns (digest %016x), want %d (digest %016x)", got.n, got.digest, w.n, w.digest)
	}
	return sum, nil
}

// checkComplete is the cheap check applied to every response that is not
// fully decoded: a JSON body must end with its closing brace, an NDJSON
// stream with its summary line.
func checkComplete(body []byte, ndjson bool) error {
	b := bytes.TrimRight(body, " \t\r\n")
	if len(b) == 0 {
		return errors.New("empty body")
	}
	if !ndjson {
		if b[len(b)-1] != '}' || b[0] != '{' {
			return errors.New("JSON body is not a complete object")
		}
		return nil
	}
	last := b[bytes.LastIndexByte(b, '\n')+1:]
	if !bytes.HasPrefix(last, []byte(`{"summary":`)) || last[len(last)-1] != '}' {
		return errors.New("NDJSON stream does not end with its summary line (truncated)")
	}
	return nil
}

// fig2 holds the pattern counts of the paper's Fig. 2 dataset, which the
// base database reproduces at every seed (renaming events and reordering
// sequences changes no support).
var fig2 = map[string]int{"closed10": 2185, "all10": 2717, "all6": 46601}

// expectations mines every result key of the shapes in-process, with
// sequential root-API calls on databases loaded from the same bytes the
// server receives, and asserts the Fig. 2 counts.
func expectations(ds *dataset, shapes []shape) (map[string]want, error) {
	snaps := map[string]*repro.Snapshot{}
	out := map[string]want{}
	for _, s := range shapes {
		if _, done := out[s.key]; done || s.key == shTopK100Live.key {
			continue // the live shape is checked per generation, after the run
		}
		snap, ok := snaps[s.db]
		if !ok {
			db, err := load(ds.text(s.db))
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", s.db, err)
			}
			snap = db.Snapshot()
			snaps[s.db] = snap
		}
		res, err := s.q.mine(snap, 1)
		if err != nil {
			return nil, fmt.Errorf("mine %s in-process: %w", s.key, err)
		}
		if n, ok := fig2[s.key]; ok && res.NumPatterns != n {
			return nil, fmt.Errorf("%s: in-process mine found %d patterns, Fig. 2 has %d", s.key, res.NumPatterns, n)
		}
		out[s.key] = wantOf(res)
	}
	return out, nil
}
