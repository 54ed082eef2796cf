package core

import (
	"repro/internal/seq"
)

// Semantics is the pluggable occurrence-semantics strategy of the DFS
// kernel. GSgrow/CloGSgrow fix one semantics — repetitive support over
// non-overlapping leftmost instances (Definition 2.3) — but the related
// work varies exactly this axis, so the kernel delegates the three
// semantics-bearing decisions to a strategy: how instance sets grow, how a
// node's support is counted, and how the finished pattern set is
// post-processed.
//
// The contract a strategy must honor:
//
//   - Grow/Singleton produce the DFS driver state. The kernel prunes any
//     branch whose grown set has fewer than MinSupport instances, so the
//     set size must be an upper bound on Support (for the built-ins it is:
//     leftmost sets are maximum non-overlapping sets). Candidate events
//     are filtered by a per-sequence bound before any Grow call (see
//     candidates), so Grow must extend each instance of I at most once
//     and end the grown instances of a sequence on pairwise distinct
//     occurrences of e after that sequence's first instance of I — as
//     leftmost instance growth does.
//   - Support must be anti-monotone under append extensions: appending an
//     event can never raise it. The kernel prunes the whole subtree of a
//     node whose Support falls below MinSupport.
//   - SupportsClosed gates Options.Closed. The closure machinery
//     (Theorems 4-5) reasons about leftmost sets specifically, so any
//     strategy that changes Grow or Support away from the leftmost
//     behavior must return false.
//   - SearchOptions may rewrite the options the DFS runs under (e.g.
//     Compressed mines the closed set internally); Finalize then sees the
//     caller's original options and the merged, deterministic result.
//     Finalize runs exactly once per Mine/MineParallel call, after the
//     parallel merge, so its output order defines the mode's output order
//     at every worker count.
//
// Strategies must be stateless values: MineParallel shares one across
// workers and calls Support/Grow concurrently.
type Semantics interface {
	// Name is the wire/flag name of the semantics ("repetitive", ...).
	Name() string
	// Singleton appends the size-1 driver set of event e to dst.
	Singleton(dst Set, ix *seq.Index, e seq.EventID) Set
	// Grow appends to dst the driver set of pattern+e grown from I, the
	// driver set of pattern.
	Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set
	// Support counts the pattern's support given its driver set I. It must
	// be anti-monotone under append and bounded above by len(I).
	Support(ix *seq.Index, pattern []seq.EventID, I Set) int
	// Instances materializes the full-landmark support set reported for an
	// emitted pattern (Options.CollectInstances). len(Instances) must equal
	// Support of the emitted node.
	Instances(ix *seq.Index, pattern []seq.EventID) FullSet
	// SupportsClosed reports whether Options.Closed may be combined with
	// this strategy.
	SupportsClosed() bool
	// SearchOptions maps the caller's options to the options the DFS
	// actually runs under.
	SearchOptions(opt Options) Options
	// Finalize post-processes the merged search result under the caller's
	// original options. It may return res unchanged or a fresh Result.
	Finalize(ix *seq.Index, opt Options, res *Result) *Result
}

// Built-in strategies. A nil Options.Semantics means Repetitive: the
// kernel's inlined hot path is exactly the repetitive behavior, so the
// default (and any strategy nodeSemantics maps to nil) costs no interface
// dispatch and no extra allocations.
var (
	// Repetitive is the paper's semantics: support is the size of the
	// leftmost (maximum non-overlapping) instance set. GSgrow/CloGSgrow.
	Repetitive Semantics = repetitiveSemantics{}
	// NonOverlapping counts disjoint occurrence windows: an occurrence may
	// start only strictly after the previous occurrence's last landmark
	// (arXiv:2311.09667 flavor). Repetitive semantics lets instances
	// interleave as long as no position is reused at the same pattern
	// index; NonOverlapping forbids interleaving entirely, so its support
	// is at most the repetitive support.
	NonOverlapping Semantics = nonOverlappingSemantics{}
	// Compressed mines the closed pattern set and then returns a small set
	// of representatives that δ-covers it (arXiv:0906.0885, CRGSgrow
	// flavor): every closed pattern is a subsequence of some representative
	// whose support is within a (1-δ) factor. MaxPatterns caps the number
	// of representatives.
	Compressed Semantics = compressedSemantics{}
)

// DefaultCompressDelta is the support tolerance used by the Compressed
// strategy when Options.CompressDelta is zero. δ = 0 would make every
// closed pattern its own representative (no compression), so the zero
// value selects a useful default instead.
const DefaultCompressDelta = 0.1

// nodeSemantics maps a strategy to the per-node hook the miner stores:
// strategies whose node behavior is exactly the inlined repetitive
// behavior map to nil, keeping the default hot path free of interface
// calls (and byte-identical to the pre-strategy kernel).
func nodeSemantics(sem Semantics) Semantics {
	switch sem {
	case nil, Repetitive, Compressed:
		return nil
	}
	return sem
}

// repetitiveSemantics is the paper's default, expressed as a strategy.
// The kernel never dispatches through it (nodeSemantics maps it to nil);
// it exists so callers can treat all modes uniformly and as the reference
// implementation of the interface contract.
type repetitiveSemantics struct{}

func (repetitiveSemantics) Name() string { return "repetitive" }
func (repetitiveSemantics) Singleton(dst Set, ix *seq.Index, e seq.EventID) Set {
	return appendSingleton(dst, ix, e)
}
func (repetitiveSemantics) Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set {
	return appendGrow(dst, ix, I, e)
}
func (repetitiveSemantics) Support(ix *seq.Index, pattern []seq.EventID, I Set) int {
	return len(I)
}
func (repetitiveSemantics) Instances(ix *seq.Index, pattern []seq.EventID) FullSet {
	return ComputeSupportSet(ix, pattern)
}
func (repetitiveSemantics) SupportsClosed() bool              { return true }
func (repetitiveSemantics) SearchOptions(opt Options) Options { return opt }
func (repetitiveSemantics) Finalize(ix *seq.Index, opt Options, res *Result) *Result {
	return res
}

// nonOverlappingSemantics drives the DFS with the leftmost repetitive set
// (whose size bounds the disjoint count from above, so the kernel's
// len(I) < MinSupport branch prune stays sound) and counts support as the
// maximum number of pairwise disjoint occurrence windows.
type nonOverlappingSemantics struct{}

func (nonOverlappingSemantics) Name() string { return "nonoverlap" }
func (nonOverlappingSemantics) Singleton(dst Set, ix *seq.Index, e seq.EventID) Set {
	return appendSingleton(dst, ix, e)
}
func (nonOverlappingSemantics) Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set {
	return appendGrow(dst, ix, I, e)
}
func (nonOverlappingSemantics) Support(ix *seq.Index, pattern []seq.EventID, I Set) int {
	return disjointSupport(ix, pattern, I)
}
func (nonOverlappingSemantics) Instances(ix *seq.Index, pattern []seq.EventID) FullSet {
	return disjointInstances(ix, pattern)
}
func (nonOverlappingSemantics) SupportsClosed() bool              { return false }
func (nonOverlappingSemantics) SearchOptions(opt Options) Options { return opt }
func (nonOverlappingSemantics) Finalize(ix *seq.Index, opt Options, res *Result) *Result {
	return res
}

// disjointSupport sums, over the sequences that hold at least one leftmost
// instance, the maximum number of pairwise disjoint occurrence windows.
// Only sequences present in I can contain an occurrence (the leftmost set
// is a maximum set), so iterating I's sequence runs skips the rest of the
// database. The count cannot be read off the leftmost set itself: in
// S = aabab the leftmost set of ab is {[1,3], [2,5]} (windows overlap,
// disjoint count 1 among them) while the disjoint windows {[1,3], [4,5]}
// give count 2 — hence the recount per node.
func disjointSupport(ix *seq.Index, pattern []seq.EventID, I Set) int {
	total := 0
	for k := 0; k < len(I); {
		si := int(I[k].Seq)
		for k < len(I) && int(I[k].Seq) == si {
			k++
		}
		total += disjointCount(ix, si, pattern)
	}
	return total
}

// disjointCount greedily matches occurrence windows in sequence si, each
// starting strictly after the previous window's last landmark. Matching
// every pattern event at its earliest legal position yields the occurrence
// with the minimal end among those starting after the cursor, and taking
// minimal-end windows greedily maximizes the number of disjoint windows
// (the classical interval-scheduling argument), so the count is the
// maximum.
func disjointCount(ix *seq.Index, si int, pattern []seq.EventID) int {
	count := 0
	pos := int32(0)
	for {
		p := pos
		for _, e := range pattern {
			p = ix.Next(si, e, p)
			if p < 0 {
				return count
			}
		}
		count++
		pos = p
	}
}

// disjointInstances materializes the greedy disjoint windows with full
// landmarks, in right-shift order. Its length equals disjointSupport over
// any valid driver set of the pattern.
func disjointInstances(ix *seq.Index, pattern []seq.EventID) FullSet {
	var out FullSet
	if len(pattern) == 0 {
		return nil
	}
	for si := 0; si < ix.DB().NumSequences(); si++ {
		pos := int32(0)
		for {
			p := pos
			land := make([]int32, 0, len(pattern))
			for _, e := range pattern {
				p = ix.Next(si, e, p)
				if p < 0 {
					break
				}
				land = append(land, p)
			}
			if len(land) < len(pattern) {
				break
			}
			out = append(out, Instance{Seq: int32(si), Land: land})
			pos = p
		}
	}
	return out
}

// compressedSemantics mines the closed set internally (per-node behavior
// is exactly repetitive, so nodeSemantics maps it to nil) and compresses
// it into δ-covering representatives in Finalize.
type compressedSemantics struct{}

func (compressedSemantics) Name() string { return "compressed" }
func (compressedSemantics) Singleton(dst Set, ix *seq.Index, e seq.EventID) Set {
	return appendSingleton(dst, ix, e)
}
func (compressedSemantics) Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set {
	return appendGrow(dst, ix, I, e)
}
func (compressedSemantics) Support(ix *seq.Index, pattern []seq.EventID, I Set) int {
	return len(I)
}
func (compressedSemantics) Instances(ix *seq.Index, pattern []seq.EventID) FullSet {
	return ComputeSupportSet(ix, pattern)
}
func (compressedSemantics) SupportsClosed() bool { return true }

// SearchOptions runs the internal search as an exhaustive closed mine:
// representative selection needs the whole closed set, so the caller's
// output shaping (MaxPatterns cap, OnPattern stream, DiscardPatterns) is
// deferred to Finalize.
func (compressedSemantics) SearchOptions(opt Options) Options {
	opt.Closed = true
	opt.MaxPatterns = 0
	opt.OnPattern = nil
	opt.DiscardPatterns = false
	return opt
}

// Finalize greedily selects representatives until every closed pattern is
// δ-covered. R covers P iff P is a subsequence of R and
// sup(R) >= (1-δ)·sup(P) (supports can only drop toward superpatterns, so
// the representative's support understates P's by at most a δ fraction).
// Each round picks the pattern covering the most still-uncovered patterns;
// ties break by support, then length, then lexicographic order — all
// deterministic functions of the merged closed set, so the output is
// identical at every worker count. Every pattern covers itself, so the
// loop always terminates with full coverage unless MaxPatterns cuts it
// short (reported as Truncated).
func (compressedSemantics) Finalize(ix *seq.Index, opt Options, res *Result) *Result {
	delta := opt.CompressDelta
	if delta == 0 {
		delta = DefaultCompressDelta
	}
	pats := res.Patterns
	n := len(pats)
	out := &Result{Stats: res.Stats}

	// Candidate cover lists. The support test is a cheap pre-filter for
	// the subsequence scan; i covers itself by construction.
	covers := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if float64(pats[i].Support) < (1-delta)*float64(pats[j].Support) {
				continue
			}
			if len(pats[i].Events) < len(pats[j].Events) {
				continue
			}
			if subseqOf(pats[j].Events, pats[i].Events) {
				covers[i] = append(covers[i], int32(j))
			}
		}
	}

	covered := make([]bool, n)
	chosen := make([]bool, n)
	numCovered, reps := 0, 0
	for numCovered < n {
		best, bestGain := -1, 0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, j := range covers[i] {
				if !covered[j] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			if gain > bestGain || (gain == bestGain && betterRep(pats, i, best)) {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		for _, j := range covers[best] {
			if !covered[j] {
				covered[j] = true
				numCovered++
			}
		}
		p := pats[best]
		out.NumPatterns++
		if !opt.DiscardPatterns {
			out.Patterns = append(out.Patterns, p)
		}
		if opt.OnPattern != nil && !opt.OnPattern(p) {
			out.Stats.Truncated = true
			return out
		}
		reps++
		if opt.MaxPatterns > 0 && reps >= opt.MaxPatterns {
			if numCovered < n {
				out.Stats.Truncated = true
			}
			return out
		}
	}
	return out
}

// betterRep is the deterministic tie-break between equal-gain candidate
// representatives: higher support first, then longer patterns, then
// lexicographically smaller event sequences.
func betterRep(pats []Pattern, i, best int) bool {
	if best < 0 {
		return true
	}
	a, b := &pats[i], &pats[best]
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	if len(a.Events) != len(b.Events) {
		return len(a.Events) > len(b.Events)
	}
	return lessEvents(a.Events, b.Events)
}

// subseqOf reports whether a is a (not necessarily contiguous) subsequence
// of b.
func subseqOf(a, b []seq.EventID) bool {
	if len(a) > len(b) {
		return false
	}
	k := 0
	for _, e := range b {
		if k < len(a) && a[k] == e {
			k++
		}
	}
	return k == len(a)
}
