package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro"
	"repro/internal/datagen"
	"repro/internal/seq"
)

// questParams is the paper's Fig. 2 dataset shape: 1,000 sequences of
// about 20 events over 1,000 event types.
var questParams = datagen.QuestParams{D: 1, C: 20, N: 1, S: 20}

// Generator seeds of the two Quest draws. The base draw is the Fig. 2
// database (2,185 closed / 2,717 all patterns at minsup 10, 46,601 all at
// minsup 6); the second draw supplies the appended records.
const (
	baseDrawSeed   = 1
	appendDrawSeed = baseDrawSeed + 1
)

// Database sizes and names as the server sees them.
const (
	dbQuest    = "quest"
	dbQuest200 = "quest200" // the base draw's first 200 sequences
	dbProbe    = "probe"    // side database of the write probe
	subsetSize = 200
	probeSize  = 10
)

// dataset is everything a run sends to the server, generated from the
// benchmark seed. Raw Quest draws at different generator seeds differ up
// to 3x in result size (46,601 to 119,548 patterns at minsup 6), which no
// run-to-run bound could absorb, so the seed does not pick the Quest draw:
// it renames the event types with a random permutation and shuffles the
// sequence order. Both change the bytes the server parses, its event
// dictionary and the miner's event-ID order, and neither changes any
// support, so the pattern counts — and the cost — stay those of Fig. 2.
type dataset struct {
	seed     int64
	quest    string // tokens text of the base draw (database quest)
	quest200 string // tokens text of quest200
	probe    string // tokens text of the write probe's side database
	// appends holds the events of the append stream: the second draw's
	// sequences, renamed with the same permutation.
	appends [][]string
}

// newDataset builds the inputs of one run.
func newDataset(seed int64) (*dataset, error) {
	base, err := quest(baseDrawSeed)
	if err != nil {
		return nil, err
	}
	extra, err := quest(appendDrawSeed)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(base.Dict.Size())
	order := r.Perm(len(base.Seqs))
	// rename maps a draw's event IDs to their new names: Quest names
	// event i "e<i>", which becomes "e<perm[i]>". Fixed-width names keep
	// every response the same size at every seed.
	rename := func(db *seq.DB) []string {
		names := make([]string, db.Dict.Size())
		for id := range names {
			var i int
			fmt.Sscanf(db.Dict.Name(seq.EventID(id)), "e%d", &i)
			names[id] = fmt.Sprintf("e%03d", perm[i])
		}
		return names
	}
	baseNames, extraNames := rename(base), rename(extra)
	writeSeq := func(b *strings.Builder, label string, names []string, s seq.Sequence) {
		b.WriteString(label)
		b.WriteByte(':')
		for _, e := range s {
			b.WriteByte(' ')
			b.WriteString(names[e])
		}
		b.WriteByte('\n')
	}
	var all, sub, probe strings.Builder
	for _, i := range order {
		label := fmt.Sprintf("q%03d", i)
		writeSeq(&all, label, baseNames, base.Seqs[i])
		// quest200 keeps the same 200 base sequences at every seed, so its
		// gapped mine costs the same; only their order and names change.
		if i < subsetSize {
			writeSeq(&sub, label, baseNames, base.Seqs[i])
		}
	}
	for i := 0; i < probeSize; i++ {
		writeSeq(&probe, fmt.Sprintf("p%03d", i), extraNames, extra.Seqs[i])
	}
	ds := &dataset{seed: seed, quest: all.String(), quest200: sub.String(), probe: probe.String()}
	for _, s := range extra.Seqs {
		events := make([]string, len(s))
		for j, e := range s {
			events[j] = extraNames[e]
		}
		ds.appends = append(ds.appends, events)
	}
	return ds, nil
}

func quest(seed int64) (*seq.DB, error) {
	p := questParams
	p.Seed = seed
	return datagen.Quest(p)
}

// text returns the upload body of database name.
func (ds *dataset) text(name string) string {
	switch name {
	case dbQuest200:
		return ds.quest200
	case dbProbe:
		return ds.probe
	}
	return ds.quest
}

// record returns the i-th appended record under a fresh label, so every
// record adds a sequence. The events wrap around after the second draw's
// 1,000 sequences.
func (ds *dataset) record(i int) repro.Record {
	return repro.Record{Label: fmt.Sprintf("w%05d", i), Events: ds.appends[i%len(ds.appends)]}
}

// load parses a database text the way the server's upload does.
func load(text string) (*repro.Database, error) {
	return repro.Load(strings.NewReader(text), repro.Tokens)
}

// loadWithRecords is the database quest after its first n appended
// records: what the server holds once those appends are acknowledged.
func (ds *dataset) loadWithRecords(n int) (*repro.Database, error) {
	db, err := load(ds.quest)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return db, nil
	}
	recs := make([]repro.Record, n)
	for i := range recs {
		recs[i] = ds.record(i)
	}
	if _, err := db.Append(recs); err != nil {
		return nil, err
	}
	return db, nil
}
