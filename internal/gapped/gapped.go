// Package gapped implements the paper's second proposed future work
// (Section V): mining repetitive gapped subsequences under a gap
// constraint, "useful for mining subsequences from long sequences of DNA,
// protein, and text data". An instance (i, <l1..lm>) is gap-valid when
// every consecutive gap l_{j+1}-l_j-1 lies within [MinGap, MaxGap]; the
// gap-constrained repetitive support of a pattern is the maximum number of
// pairwise non-overlapping gap-valid instances (overlap as in the paper's
// Definition 2.3).
//
// Two properties of the unconstrained problem break under gap constraints,
// and this package handles both exactly rather than approximately:
//
//   - Greedy leftmost instance growth (INSgrow) is no longer optimal: in
//     S = AAB with MaxGap = 0, the leftmost A cannot reach the B, but the
//     second A can. Support is therefore computed as maximum node-disjoint
//     paths in the gap-constrained occurrence DAG — a unit-capacity max
//     flow per sequence, polynomial like the paper's greedy but without
//     relying on the exchange argument that gap constraints invalidate.
//
//   - The full Apriori property fails: deleting a middle event of a
//     pattern merges two gaps and can invalidate instances, so a
//     sub-pattern can have smaller support than its super-pattern. Support
//     IS still anti-monotone along prefix extension (dropping the last
//     event of a gap-valid instance keeps it gap-valid), which is exactly
//     what depth-first pattern growth needs: every frequent pattern is
//     reachable through frequent prefixes.
//
// Cost model. A DFS node sweeps its prefix's gap-valid ends once, visiting
// each position of the union of the windows [p+1+MinGap, p+1+MaxGap] exactly
// once, and buckets the positions by event: that is every child's end list at
// once, in O(Σ prefix ends × (MaxGap−MinGap+1)) per node, capped by the span
// of the sequences the prefix occurs in. A child whose end count (an upper
// bound on its support) reaches MinSupport costs one max-flow if it has two
// or more events; singletons need none. End lists live in per-depth arenas
// and the max-flow in one workspace, all reused across the run.
package gapped

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/seq"
)

// Options configures a gap-constrained mining run.
type Options struct {
	// MinSupport is the support threshold (>= 1).
	MinSupport int
	// MinGap and MaxGap bound the number of events strictly between
	// consecutive pattern events. MaxGap must be >= MinGap >= 0.
	// (MinGap = 0, MaxGap = 0 mines contiguous substrings.)
	MinGap, MaxGap int
	// MaxPatternLength bounds pattern length; 0 = unbounded.
	MaxPatternLength int
	// MaxPatterns stops the run early; 0 = unbounded.
	MaxPatterns int
	// Ctx, when non-nil, cancels the run: the DFS polls it periodically
	// and returns the patterns found so far with Truncated set — the same
	// partial-result contract as the core miners.
	Ctx context.Context
	// OnPattern, when non-nil, streams every emitted pattern. Returning
	// false stops the run (marked Truncated). Patterns are still
	// accumulated in Result.Patterns.
	OnPattern func(Pattern) bool
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.MinSupport < 1 {
		return fmt.Errorf("gapped: MinSupport must be >= 1, got %d", o.MinSupport)
	}
	if o.MinGap < 0 || o.MaxGap < o.MinGap {
		return fmt.Errorf("gapped: need 0 <= MinGap <= MaxGap, got [%d, %d]", o.MinGap, o.MaxGap)
	}
	if o.MaxPatternLength < 0 || o.MaxPatterns < 0 {
		return fmt.Errorf("gapped: negative length/pattern bounds")
	}
	return nil
}

// Pattern is a mined gap-constrained pattern.
type Pattern struct {
	Events  []seq.EventID
	Support int
}

// Result is the output of Mine.
type Result struct {
	Patterns  []Pattern
	Truncated bool
	Duration  time.Duration
	// FlowCalls counts exact support computations (max-flow runs).
	FlowCalls int
}

// Mine returns every pattern whose gap-constrained repetitive support
// reaches opt.MinSupport. Patterns are emitted in DFS preorder over
// ascending event IDs.
func Mine(db *seq.DB, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := &gapMiner{db: db, opt: opt, res: &Result{}}
	if opt.Ctx != nil {
		select {
		case <-opt.Ctx.Done():
			m.stopped = true
			m.res.Truncated = true
		default:
		}
	}
	if !m.stopped {
		m.descend(0)
	}
	m.res.Duration = time.Since(start)
	return m.res, nil
}

// hit is one gap-valid end: 1-based position pos of sequence seq.
type hit struct{ seq, pos int32 }

// swept is a position visited by a node's sweep, tagged with its event.
type swept struct {
	hit
	ev seq.EventID
}

// child is one extension of a node by event ev whose end count passed the
// MinSupport bound; its ends are arenas[depth][lo:hi].
type child struct {
	ev     seq.EventID
	lo, hi int32
}

type gapMiner struct {
	db      *seq.DB
	opt     Options
	pattern []seq.EventID
	// chain[j] holds the gap-valid ends of the prefix pattern[:j+1] (the
	// positions where some gap-valid instance of it ends), sorted by
	// sequence then position: the gap-constrained analogue of a projected
	// database. It is a slice of arenas[j].
	chain [][]hit
	// arenas[d] and kids[d] hold the children of the current depth-d node
	// (the root is depth 0). Siblings reuse them: a node's children are
	// only rewritten once its subtree is done.
	arenas [][]hit
	kids   [][]child
	// Sweep scratch shared by every depth: a node buckets its sweep before
	// any child runs.
	sweep   []swept
	count   []int32 // per event: ends found by the current sweep
	cursor  []int32 // per event: next arena slot, -1 when pruned
	touched []seq.EventID
	// Max-flow scratch: per-layer cursors and runs of one sequence, and the
	// flow graph.
	cur     []int
	runs    [][]hit
	g       flow
	res     *Result
	stopped bool
	tick    int // nodes since the last Ctx poll
}

// ctxPoll is the amortized cancellation check: it polls Options.Ctx every
// 64 DFS nodes (support computations dominate a node's cost by orders of
// magnitude, so the abort latency stays small) and marks the run stopped
// and truncated when the context is done.
func (m *gapMiner) ctxPoll() bool {
	if m.opt.Ctx == nil || m.stopped {
		return m.stopped
	}
	m.tick++
	if m.tick < 64 {
		return false
	}
	m.tick = 0
	select {
	case <-m.opt.Ctx.Done():
		m.stopped = true
		m.res.Truncated = true
		return true
	default:
		return false
	}
}

// grow handles the current prefix, whose ends are on top of the chain.
func (m *gapMiner) grow() {
	if m.ctxPoll() {
		return
	}
	sup := m.support()
	if sup < m.opt.MinSupport {
		return
	}
	p := Pattern{
		Events:  append([]seq.EventID(nil), m.pattern...),
		Support: sup,
	}
	m.res.Patterns = append(m.res.Patterns, p)
	if m.opt.OnPattern != nil && !m.opt.OnPattern(p) {
		m.stopped = true
		m.res.Truncated = true
		return
	}
	if m.opt.MaxPatterns > 0 && len(m.res.Patterns) >= m.opt.MaxPatterns {
		m.stopped = true
		m.res.Truncated = true
		return
	}
	if m.opt.MaxPatternLength > 0 && len(m.pattern) >= m.opt.MaxPatternLength {
		return
	}
	m.descend(len(m.pattern))
}

// descend visits the children of the depth-d node in ascending event order.
func (m *gapMiner) descend(d int) {
	for _, c := range m.expand(d) {
		m.pattern = append(m.pattern[:d], c.ev)
		m.chain = append(m.chain[:d], m.arenas[d][c.lo:c.hi])
		m.grow()
		if m.stopped {
			return
		}
	}
}

// expand computes the children of the depth-d node: every event whose
// extension has at least MinSupport gap-valid ends (support is at most the
// number of distinct ends, since non-overlapping instances end at distinct
// positions), in ascending event order, with their end lists in arenas[d].
//
// The root (d = 0) visits every position. A deeper node sweeps its prefix's
// ends: q ends the extension by S[q] iff some prefix end p in the same
// sequence has MinGap <= q-p-1 <= MaxGap, so each sequence's windows
// [p+1+MinGap, p+1+MaxGap] are merged in ascending p and every position of
// their union is visited once, in ascending order. Bucketing the visits by
// event with a stable counting sort then keeps each end list sorted.
func (m *gapMiner) expand(d int) []child {
	sw := m.sweep[:0]
	if d == 0 {
		maxEv := seq.EventID(-1)
		for i, s := range m.db.Seqs {
			for k, e := range s {
				sw = append(sw, swept{hit{int32(i), int32(k + 1)}, e})
				maxEv = max(maxEv, e)
			}
		}
		n := int(maxEv) + 1
		m.count = slices.Grow(m.count[:0], n)[:n]
		m.cursor = slices.Grow(m.cursor[:0], n)[:n]
		clear(m.count)
	} else {
		minGap, maxGap := m.opt.MinGap, m.opt.MaxGap
		ends := m.chain[d-1]
		for k := 0; k < len(ends); {
			i := ends[k].seq
			s := m.db.Seqs[i]
			next := 1 // first position of s not yet visited
			for ; k < len(ends) && ends[k].seq == i; k++ {
				p := int(ends[k].pos)
				if minGap >= len(s)-p {
					continue // the window starts past the sequence's end
				}
				lo := max(p+1+minGap, next)
				hi := p + 1 + min(maxGap, len(s)-p-1)
				for q := lo; q <= hi; q++ {
					sw = append(sw, swept{hit{i, int32(q)}, s[q-1]})
				}
				next = max(next, hi+1)
			}
		}
	}
	m.sweep = sw

	touched := m.touched[:0]
	for _, h := range sw {
		if m.count[h.ev] == 0 {
			touched = append(touched, h.ev)
		}
		m.count[h.ev]++
	}
	slices.Sort(touched)
	m.touched = touched
	for len(m.kids) <= d {
		m.kids = append(m.kids, nil)
		m.arenas = append(m.arenas, nil)
	}
	kids := m.kids[d][:0]
	size := int32(0)
	for _, e := range touched {
		c := m.count[e]
		m.count[e] = 0
		if int(c) < m.opt.MinSupport {
			m.cursor[e] = -1
			continue
		}
		m.cursor[e] = size
		kids = append(kids, child{e, size, size + c})
		size += c
	}
	m.kids[d] = kids
	arena := slices.Grow(m.arenas[d][:0], int(size))[:size]
	for _, h := range sw {
		if c := m.cursor[h.ev]; c >= 0 {
			arena[c] = h.hit
			m.cursor[h.ev] = c + 1
		}
	}
	m.arenas[d] = arena
	return kids
}

// support computes the exact gap-constrained repetitive support of the
// current pattern: per sequence, maximum node-disjoint paths through the
// layered gap-valid occurrence DAG (layer j = gap-valid ends of
// pattern[:j+1] in that sequence); across sequences, supports add up.
func (m *gapMiner) support() int {
	depth := len(m.pattern)
	if depth == 1 {
		// No gaps to respect: every occurrence is an instance and all
		// single-event instances are pairwise non-overlapping.
		return len(m.chain[0])
	}
	m.res.FlowCalls++
	// Only sequences with ends in the last layer can carry flow. Every end
	// extends an end of the previous layer in the same sequence, so the
	// shallower layers hold a superset of these sequences and each layer's
	// cursor only moves forward.
	m.cur = slices.Grow(m.cur[:0], depth)[:depth]
	clear(m.cur)
	m.runs = slices.Grow(m.runs[:0], depth)[:depth]
	total := 0
	for {
		last := m.chain[depth-1]
		k := m.cur[depth-1]
		if k == len(last) {
			return total
		}
		i := last[k].seq
		for j := range depth {
			layer := m.chain[j]
			lo := m.cur[j]
			for layer[lo].seq < i {
				lo++
			}
			hi := lo
			for hi < len(layer) && layer[hi].seq == i {
				hi++
			}
			m.runs[j] = layer[lo:hi]
			m.cur[j] = hi
		}
		total += m.seqFlow(m.runs)
	}
}

// seqFlow builds one sequence's occurrence DAG in the flow workspace and
// returns its max flow. Node 0 is the source and 1 the sink; every end is
// split into an in and an out node of unit capacity, so paths are
// node-disjoint.
func (m *gapMiner) seqFlow(layers [][]hit) int {
	n := 2
	for _, l := range layers {
		n += 2 * len(l)
	}
	g := &m.g
	g.reset(n)
	base, nextBase := 2, 2+2*len(layers[0])
	for k := range layers[0] {
		g.edge(0, base+2*k)
	}
	for j, l := range layers {
		last := j == len(layers)-1
		lo := 0 // first end of layer j+1 not too close to the current end
		for k, h := range l {
			in := base + 2*k
			g.edge(in, in+1)
			if last {
				g.edge(in+1, 1)
				continue
			}
			nl := layers[j+1]
			for lo < len(nl) && int(nl[lo].pos)-int(h.pos)-1 < m.opt.MinGap {
				lo++
			}
			for k2 := lo; k2 < len(nl) && int(nl[k2].pos)-int(h.pos)-1 <= m.opt.MaxGap; k2++ {
				g.edge(in+1, nextBase+2*k2)
			}
		}
		if !last {
			base, nextBase = nextBase, nextBase+2*len(layers[j+1])
		}
	}
	return g.maxflow(0, 1)
}

// Support computes the gap-constrained repetitive support of one pattern
// without mining, for callers and tests.
func Support(db *seq.DB, pattern []seq.EventID, minGap, maxGap int) (int, error) {
	opt := Options{MinSupport: 1, MinGap: minGap, MaxGap: maxGap}
	if err := opt.Validate(); err != nil {
		return 0, err
	}
	if len(pattern) == 0 {
		return 0, nil
	}
	m := &gapMiner{db: db, opt: opt, res: &Result{}}
	// Build the chain prefix by prefix from the same node expansion Mine
	// uses; at MinSupport 1 every event that occurs is a child.
	for d, e := range pattern {
		kids := m.expand(d)
		k, ok := slices.BinarySearchFunc(kids, e, func(c child, e seq.EventID) int { return int(c.ev) - int(e) })
		if !ok {
			return 0, nil
		}
		m.pattern = append(m.pattern, e)
		m.chain = append(m.chain, m.arenas[d][kids[k].lo:kids[k].hi])
	}
	return m.support(), nil
}

// flow is a minimal unit-capacity max-flow (BFS augmenting paths), local to
// this package so gapped does not depend on the test oracle in verify. One
// flow is a reusable workspace: reset clears it for a new graph without
// freeing its storage.
type flow struct {
	head, next, to []int32
	cap            []int8
	prev, queue    []int32
}

// reset empties the graph and sizes it for n nodes.
func (g *flow) reset(n int) {
	g.head = slices.Grow(g.head[:0], n)[:n]
	for i := range g.head {
		g.head[i] = -1
	}
	g.next, g.to, g.cap = g.next[:0], g.to[:0], g.cap[:0]
}

func (g *flow) edge(u, v int) {
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, 1, 0)
	g.next = append(g.next, g.head[u], g.head[v])
	g.head[u] = int32(len(g.to) - 2)
	g.head[v] = int32(len(g.to) - 1)
}

func (g *flow) maxflow(s, t int) int {
	total := 0
	g.prev = slices.Grow(g.prev[:0], len(g.head))[:len(g.head)]
	prev := g.prev
	for {
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = -2
		queue := append(g.queue[:0], int32(s))
		found := false
	bfs:
		for qh := 0; qh < len(queue); qh++ {
			u := queue[qh]
			for e := g.head[u]; e != -1; e = g.next[e] {
				v := g.to[e]
				if g.cap[e] > 0 && prev[v] == -1 {
					prev[v] = e
					if int(v) == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		g.queue = queue
		if !found {
			return total
		}
		for v := t; v != s; {
			e := prev[v]
			g.cap[e]--
			g.cap[e^1]++
			v = int(g.to[e^1])
		}
		total++
	}
}
