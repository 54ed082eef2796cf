package core

import "repro/internal/seq"

// candidates returns, in ascending event-ID order, every event e that can
// extend at least one instance of I and whose support bound ub(e), below,
// reaches MinSupport. Within a sequence run of I (sorted by last
// landmark, so the run's first instance has the earliest one, firstLast),
// e can extend some instance only if it occurs after firstLast — the
// remark under Theorem 6: "we can maintain a list of possible events which
// are much fewer than those in E". The same scan accumulates the support
// bound
//
//	ub(e) = Σ_i min(run_i, count_i(e))  over the runs with last_i(e) > firstLast_i
//
// and drops every event with ub(e) < MinSupport. The bound holds because
// instance growth extends each of the run_i instances at most once, and
// the grown instances end on pairwise distinct occurrences of e in Si.
//
// Both consumers of the list stay sound:
//   - The DFS prune: a dropped e has len(insGrow(I, e)) <= ub(e) <
//     MinSupport, so the candidate loop would have discarded its growth
//     (and in closed mode it cannot be an equal-support append extension,
//     which needs len(I2) = len(I) >= MinSupport).
//   - Insertion-candidate reuse (insertionCandidates reads this list off
//     candStack): for a closure check at support s >= MinSupport, a
//     dropped e' at gap g has a first chain step insGrow(chain[g-1], e')
//     of size <= ub(e') < MinSupport <= s, so checkNonAppend would have
//     refuted that chain anyway.
//
// At MinSupport 1 (top-k) every event that passes the position test has
// ub >= 1, so the bound is skipped and only the position test runs. The
// scan costs O(Σ distinct events per touched sequence) over flat index
// arrays. The returned slice comes from the miner's candidate-buffer pool
// (the DFS holds it across recursive calls, then recycles it with
// putCands); the ub accumulator is shared scratch, 0 meaning unseen, and
// is zeroed before returning.
func (m *miner) candidates(I Set) []seq.EventID {
	out := m.getCands()
	ub := m.ub
	bounded := m.opt.MinSupport > 1
	start := 0
	for start < len(I) {
		si := I[start].Seq
		firstLast := I[start].Last
		end := start + 1
		for end < len(I) && I[end].Seq == si {
			end++
		}
		run := int32(end - start)
		events, last, count := m.ix.EventStats(int(si))
		for k, e := range events {
			if last[k] <= firstLast {
				continue
			}
			if ub[e] == 0 {
				out = append(out, e)
			}
			if bounded {
				ub[e] += min(run, count[k])
			} else {
				ub[e] = 1
			}
		}
		start = end
	}
	minSup := int32(m.opt.MinSupport)
	n := 0
	for _, e := range out {
		if ub[e] >= minSup {
			out[n] = e
			n++
		}
		ub[e] = 0
	}
	out = out[:n]
	sortEventIDs(out)
	return out
}

// sequenceRunsOf returns the distinct 0-based sequence indices touched by
// I (ascending) alongside the number of instances in each — the
// per-sequence repetitive supports sup_i(P), since a leftmost support set
// realizes the per-sequence maximum in every sequence. Both slices live in
// miner scratch buffers overwritten by the next call.
func (m *miner) sequenceRunsOf(I Set) (seqs, perSeq []int32) {
	seqs, perSeq = m.seqsBuf[:0], m.runsBuf[:0]
	for k := 0; k < len(I); k++ {
		if k == 0 || I[k].Seq != I[k-1].Seq {
			seqs = append(seqs, I[k].Seq)
			perSeq = append(perSeq, 1)
		} else {
			perSeq[len(perSeq)-1]++
		}
	}
	m.seqsBuf, m.runsBuf = seqs, perSeq
	return seqs, perSeq
}

// eligibleEvents returns, ascending, every event that can possibly appear
// in an equal-support insertion or prepend extension of the current
// pattern: support decomposes per sequence, so sup(P') = sup(P) requires
// sup_i(P') = sup_i(P) = perSeq[r] in every touched sequence, and the
// perSeq[r] non-overlapping instances of P' in that sequence pin e' at
// pairwise distinct positions — hence e' must occur at least perSeq[r]
// times in seqs[r], for every r. Any eligible event occurs in the first
// touched sequence, so only its distinct-event list is scanned. The result
// lives in the miner's eligibility scratch buffer (valid for the duration
// of one closure check).
func (m *miner) eligibleEvents(seqs, perSeq []int32) []seq.EventID {
	out := m.eligBuf[:0]
	if len(seqs) == 0 {
		m.eligBuf = out
		return out
	}
	events, _, count0 := m.ix.EventStats(int(seqs[0]))
	for k, e := range events {
		if count0[k] < perSeq[0] {
			continue
		}
		ok := true
		for r := 1; r < len(seqs); r++ {
			if m.ix.Count(int(seqs[r]), e) < int(perSeq[r]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	m.eligBuf = out
	return out
}

// insertionCandidates returns candidate events e' for the insertion
// extension P' = e1..eg e' e{g+1}..em (1 <= g <= m-1): the eligible events
// (per-sequence occurrence filter, see eligibleEvents) that can also
// extend an instance of the prefix support set chain[g-1] with a support
// bound of at least MinSupport — exactly the candidate list the DFS
// computed when it grew from that prefix, cached on candStack (see
// candidates for why its bound never drops an equal-support chain). Both
// inputs are sorted ascending, so the intersection is one merge into the
// miner's gap-candidate scratch buffer (consumed before the next gap's
// call overwrites it).
func (m *miner) insertionCandidates(g int, elig []seq.EventID) []seq.EventID {
	cands := m.candStack[g-1]
	out := m.gapCandBuf[:0]
	i, j := 0, 0
	for i < len(elig) && j < len(cands) {
		switch {
		case elig[i] == cands[j]:
			out = append(out, elig[i])
			i++
			j++
		case elig[i] < cands[j]:
			i++
		default:
			j++
		}
	}
	m.gapCandBuf = out
	return out
}

// allFrequentEvents is the ablation-A1 alternative to candidates: ignore I
// and try every globally frequent event, as in the worst-case factor E of
// Theorem 6.
func (m *miner) allFrequentEvents() []seq.EventID { return m.freqEvents }

// sortEventIDs sorts a small slice of event IDs ascending. Insertion sort:
// candidate lists arrive nearly sorted (per-sequence event lists are
// sorted, and merging a handful of sequences keeps long ascending runs).
func sortEventIDs(a []seq.EventID) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
