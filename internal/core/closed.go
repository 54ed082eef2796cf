package core

import "repro/internal/seq"

// growClosed is the CloGSgrow (Algorithm 4) variant of mineFre. For the
// frequent pattern P on m.pattern with support set I it:
//
//  1. runs closure checking (Theorem 4) against insertion and prepend
//     extensions, re-growing each candidate chain from the prefix support
//     sets held on the DFS stack, and landmark border checking (Theorem 5)
//     on every equal-support chain it finds — if some extension has equal
//     support and its leftmost support set's last landmarks do not shift
//     right, the entire DFS subtree rooted at P is pruned;
//  2. otherwise extends P depth-first exactly like GSgrow, observing along
//     the way whether any append extension preserves the support;
//  3. emits P only if no extension of equal support was found anywhere.
//
// Refuted insertion/prepend chains are memoized on the DFS path (see
// checkNonAppend); the undo mark taken here scopes those entries to P's
// subtree.
func (m *miner) growClosed(I Set) {
	if m.tracker != nil && m.tracker.pruneSubtree(m.path) {
		return
	}
	m.enterNode()
	if m.stopped {
		return
	}
	m.res.Stats.ClosureChecks++
	memoMark := len(m.memoLog)
	equalFound, prune := m.checkNonAppend(I)
	if prune {
		m.memoRevert(memoMark)
		m.res.Stats.LBPrunes++
		m.res.Stats.NonClosedSkipped++
		return
	}

	var cands []seq.EventID
	pooled := false
	if m.opt.FullAlphabetCandidates {
		cands = m.allFrequentEvents()
	} else {
		cands = m.candidates(I)
		pooled = true
	}
	m.candStack = append(m.candStack, cands)
	atCap := m.opt.MaxPatternLength > 0 && len(m.pattern) >= m.opt.MaxPatternLength
	// Loop cursors in locals, mirrored to the frame around recursion — see
	// grow for the synchronization contract with maybeDonate.
	fi := len(m.frames)
	m.frames = append(m.frames, wsFrame{cands: cands, end: len(cands), I: I, noRecurse: atCap})
	next, end := 0, len(cands)
	appendEqual := false
	for next < end {
		ci := next
		next++
		e := cands[ci]
		m.res.Stats.INSgrowCalls++
		I2 := appendGrow(m.getSet(len(I)), m.ix, I, e)
		if len(I2) == len(I) {
			appendEqual = true
		}
		if len(I2) < m.opt.MinSupport || atCap {
			m.putSet(I2)
			continue
		}
		m.frames[fi].next = next
		m.pattern = append(m.pattern, e)
		m.path = append(m.path, int32(ci))
		m.chain = append(m.chain, I2)
		m.growClosed(I2)
		m.pattern = m.pattern[:len(m.pattern)-1]
		m.path = m.path[:len(m.path)-1]
		m.chain = m.chain[:len(m.chain)-1]
		m.putSet(I2)
		end = m.frames[fi].end
		if m.stopped {
			break
		}
	}
	appendEqual = appendEqual || m.frames[fi].appendEqual
	crossedDonation := m.frames[fi].donated && next >= end
	m.frames = m.frames[:fi]
	m.candStack = m.candStack[:len(m.candStack)-1]
	if pooled {
		m.putCands(cands)
	}
	m.memoRevert(memoMark)
	if m.stopped {
		return
	}
	if crossedDonation {
		// In post-order this node's own emission follows the donated
		// subtrees, so it (and everything after) starts a new block.
		m.splitPending = true
	}
	if equalFound || appendEqual {
		m.res.Stats.NonClosedSkipped++
		return
	}
	m.emit(I, len(I))
}

// memoUndo records one memo mutation so it can be reverted when the DFS
// leaves the node that made it.
type memoUndo struct {
	idx  int
	prev int32
}

// memoEnsure grows the flat memo table to cover gap indices up to g. The
// table is (rows × numEvents) int32s; entry 0 means "no verdict" (supports
// are always >= 1, so 0 is a safe sentinel).
func (m *miner) memoEnsure(g int) {
	if rows := g + 1; rows > m.memoRows {
		grown := make([]int32, rows*m.numEvents)
		copy(grown, m.memoSup)
		m.memoSup = grown
		m.memoRows = rows
	}
}

// memoAdd records that the insertion/prepend extension (g, e) was refuted
// at support s, logging the previous binding for revert.
func (m *miner) memoAdd(g int, e seq.EventID, s int32) {
	idx := g*m.numEvents + int(e)
	prev := m.memoSup[idx]
	if prev == s {
		return
	}
	m.memoLog = append(m.memoLog, memoUndo{idx: idx, prev: prev})
	m.memoSup[idx] = s
}

// memoRevert undoes every memo mutation logged after mark.
func (m *miner) memoRevert(mark int) {
	for len(m.memoLog) > mark {
		u := m.memoLog[len(m.memoLog)-1]
		m.memoLog = m.memoLog[:len(m.memoLog)-1]
		m.memoSup[u.idx] = u.prev
	}
}

// checkNonAppend implements the insertion/prepend part of closure checking
// plus landmark border checking. For the current pattern P = e1..em with
// leftmost support set I (|I| = s = sup(P)), it examines extensions
//
//	g = 0:        P' = e' e1..em          (prepend)
//	1 <= g < m:   P' = e1..eg e' e{g+1}..em (insertion)
//
// Candidates e' come from the per-sequence eligibility filter: repetitive
// support decomposes per sequence, so sup(P') = s forces sup_i(P') =
// sup_i(P) in every touched sequence i, and the s instances of P' in Si
// place e' at pairwise distinct positions — e' must occur at least
// sup_i(P) times in every sequence touched by I. For insertion gaps the
// list is additionally intersected with the candidate events cached when
// the DFS grew from that prefix (the chain's first step must grow at
// least s >= MinSupport instances from chain[g-1]; see candidates).
//
// For each candidate e', the leftmost support set of P' is obtained by
// instance growth starting from the prefix support set chain[g-1] (or the
// singleton set of e' restricted to the sequences containing P, for g = 0)
// and then appending e' and the suffix events — every step aborting early
// once the intermediate support can no longer reach s. Since by Apriori
// sup(P') <= s, any chain that survives proves sup(P') = s and hence that P
// is non-closed; if additionally the final landmarks of P”s leftmost
// support set do not shift right of I's (Theorem 5 condition (ii)), the
// whole subtree can be pruned and checkNonAppend returns prune = true.
//
// Refuted chains are memoized: a refutation proves sup(P') < s, and for a
// descendant pattern P∘w with the same support s the corresponding chain
// e1..eg e' e{g+1}..em w has support <= sup(P') < s by Apriori, so the
// verdict transfers verbatim and the chain need not be re-grown. The memo
// is consulted only when the stored support equals the current s (supports
// only shrink down a DFS path, so a stale larger value proves nothing) and
// entries are reverted when the DFS leaves the node that added them (the
// suffix events they refer to go out of scope with the subtree).
//
// With LBCheck disabled (ablation A2), the function returns on the first
// equal-support extension found, as no pruning decision is needed.
func (m *miner) checkNonAppend(I Set) (equalFound, prune bool) {
	s := len(I)
	s32 := int32(s)
	mlen := len(m.pattern)
	seqs, perSeq := m.sequenceRunsOf(I)
	elig := m.eligibleEvents(seqs, perSeq)
	if len(elig) == 0 {
		return false, false
	}
	m.memoEnsure(mlen - 1)
	// Gaps are visited in descending order: insertion near the end of the
	// pattern needs the shortest re-grow chain, and — since landmark
	// border prunes are common — finding a prunable extension early saves
	// the rest of the scan. The prepend chain (full pattern re-grow) is
	// the most expensive and goes last.
	for g := mlen - 1; g >= 0; g-- {
		cands := elig
		if g > 0 {
			cands = m.insertionCandidates(g, elig)
		}
		for _, e := range cands {
			idx := g*m.numEvents + int(e)
			if m.memoSup[idx] == s32 {
				m.res.Stats.MemoHits++
				continue
			}
			// Ping-pong the two scratch buffers down the chain: each step
			// reads cur and writes into next, so source and destination
			// never alias. Both buffers are stored back whatever happens.
			cur, next := m.scratchA[:0], m.scratchB[:0]
			ok := true
			if g == 0 {
				cur = appendSingletonIn(cur, m.ix, e, seqs)
				ok = len(cur) >= s
			} else {
				m.res.Stats.ClosureChainGrowths++
				cur, ok = insGrowAtLeast(m.ix, m.chain[g-1], e, s, cur)
			}
			if ok {
				for j := g; j < mlen; j++ {
					m.res.Stats.ClosureChainGrowths++
					var grown Set
					grown, ok = insGrowAtLeast(m.ix, cur, m.pattern[j], s, next)
					next = cur
					cur = grown
					if !ok {
						break
					}
				}
			}
			m.scratchA, m.scratchB = cur, next
			if !ok {
				m.memoAdd(g, e, s32)
				continue
			}
			// cur is the leftmost support set of P' and |cur| >= s; by
			// Apriori |cur| = sup(P') <= sup(P) = s, hence equality.
			equalFound = true
			if m.opt.DisableLBCheck {
				return true, false
			}
			if borderNotShifted(cur, I) {
				return true, true
			}
		}
	}
	return equalFound, false
}

// borderNotShifted checks Theorem 5 condition (ii): with both leftmost
// support sets sorted in right-shift order, the last landmark of each P'
// instance must not exceed the last landmark of the corresponding P
// instance (l'^(k)_{m+1} <= l^(k)_m for every k). Equal supports imply the
// two sets visit the same sequences with the same multiplicities (support
// decomposes per sequence); the sequence comparison below is a defensive
// guard.
func borderNotShifted(J, I Set) bool {
	if len(J) != len(I) {
		return false
	}
	for k := range J {
		if J[k].Seq != I[k].Seq || J[k].Last > I[k].Last {
			return false
		}
	}
	return true
}
