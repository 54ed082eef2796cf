package gapped

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seq"
)

func mkDB(seqs ...string) *seq.DB {
	db := seq.NewDB()
	for _, s := range seqs {
		db.AddChars("", s)
	}
	return db
}

func mkPat(db *seq.DB, s string) []seq.EventID {
	out := make([]seq.EventID, len(s))
	for i := range s {
		out[i] = db.Dict.Intern(string(s[i]))
	}
	return out
}

// bruteGapSupport enumerates gap-valid landmarks per sequence and finds the
// maximum non-overlapping subset by backtracking — the independent oracle.
func bruteGapSupport(db *seq.DB, pattern []seq.EventID, minGap, maxGap int) int {
	total := 0
	for i := range db.Seqs {
		lands := enumGapLandmarks(db.Seqs[i], pattern, minGap, maxGap)
		total += maxNonOverlapping(lands)
	}
	return total
}

func enumGapLandmarks(s seq.Sequence, pattern []seq.EventID, minGap, maxGap int) [][]int32 {
	var out [][]int32
	land := make([]int32, 0, len(pattern))
	var rec func(j int, prev int32)
	rec = func(j int, prev int32) {
		if j == len(pattern) {
			out = append(out, append([]int32(nil), land...))
			return
		}
		for p := 1; p <= len(s); p++ {
			if s.At(p) != pattern[j] {
				continue
			}
			if j > 0 {
				gap := p - int(prev) - 1
				if gap < minGap || gap > maxGap {
					continue
				}
			}
			land = append(land, int32(p))
			rec(j+1, int32(p))
			land = land[:len(land)-1]
		}
	}
	rec(0, 0)
	return out
}

func maxNonOverlapping(lands [][]int32) int {
	best := 0
	var chosen []int
	conflicts := func(a, b []int32) bool {
		for j := range a {
			if a[j] == b[j] {
				return true
			}
		}
		return false
	}
	var rec func(k int)
	rec = func(k int) {
		if len(chosen) > best {
			best = len(chosen)
		}
		if k == len(lands) || len(chosen)+(len(lands)-k) <= best {
			return
		}
		ok := true
		for _, c := range chosen {
			if conflicts(lands[c], lands[k]) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, k)
			rec(k + 1)
			chosen = chosen[:len(chosen)-1]
		}
		rec(k + 1)
	}
	rec(0)
	return best
}

func TestGreedyWouldFail(t *testing.T) {
	// In AAB with MaxGap = 0, the leftmost A cannot reach B; the correct
	// support is 1 (greedy leftmost growth from A1 would find 0 for the
	// chain through A1, which is why this package uses max flow).
	db := mkDB("AAB")
	got, err := Support(db, mkPat(db, "AB"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("sup(AB | gap=0) in AAB = %d, want 1", got)
	}
}

func TestSupportGoldValues(t *testing.T) {
	cases := []struct {
		seqs           []string
		pattern        string
		minGap, maxGap int
		want           int
	}{
		// Zhang-style example from the paper: AB with gap in [0,3] in
		// AABCDABB has 4 occurrences but only 3 are pairwise
		// non-overlapping ((1,3),(2,?),... A at 1,2,6; B at 3,7,8; valid
		// pairs: (1,3),(2,3),(2,7)? gap(2,7)=4 no. (6,7),(6,8). Max
		// matching with distinct As and Bs: (1,3),(6,7) plus... (2,?) no B
		// left within gap. So 2... let the oracle decide below; here pin
		// simple cases.
		{[]string{"ABAB"}, "AB", 0, 0, 2},
		{[]string{"ABAB"}, "AB", 0, 3, 2},
		{[]string{"AXB"}, "AB", 0, 0, 0},
		{[]string{"AXB"}, "AB", 1, 1, 1},
		{[]string{"AXB"}, "AB", 2, 5, 0},
		{[]string{"AABB"}, "AB", 0, 1, 2},
		{[]string{"AAB", "AAB"}, "AB", 0, 0, 2},
		{[]string{"ABCABC"}, "ABC", 0, 0, 2},
		{[]string{"ABCABC"}, "AC", 1, 1, 2},
		{[]string{""}, "A", 0, 0, 0},
	}
	for _, c := range cases {
		db := mkDB(c.seqs...)
		got, err := Support(db, mkPat(db, c.pattern), c.minGap, c.maxGap)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("sup(%s | gap [%d,%d]) in %v = %d, want %d",
				c.pattern, c.minGap, c.maxGap, c.seqs, got, c.want)
		}
		if brute := bruteGapSupport(db, mkPat(db, c.pattern), c.minGap, c.maxGap); got != brute {
			t.Errorf("flow %d != brute %d for %s in %v", got, brute, c.pattern, c.seqs)
		}
	}
}

func TestSupportValidation(t *testing.T) {
	db := mkDB("AB")
	if _, err := Support(db, mkPat(db, "AB"), -1, 2); err == nil {
		t.Error("negative MinGap accepted")
	}
	if _, err := Support(db, mkPat(db, "AB"), 3, 2); err == nil {
		t.Error("inverted gap range accepted")
	}
	got, err := Support(db, nil, 0, 2)
	if err != nil || got != 0 {
		t.Errorf("empty pattern: %d, %v", got, err)
	}
	// Gap bounds far beyond any sequence must not overflow the windows.
	if got, err := Support(db, mkPat(db, "AB"), math.MaxInt-1, math.MaxInt); err != nil || got != 0 {
		t.Errorf("sup(AB | gap [MaxInt-1, MaxInt]) = %d, %v; want 0", got, err)
	}
	if got, err := Support(db, mkPat(db, "AB"), 0, math.MaxInt); err != nil || got != 1 {
		t.Errorf("sup(AB | gap [0, MaxInt]) = %d, %v; want 1", got, err)
	}
}

func TestMineValidation(t *testing.T) {
	db := mkDB("AB")
	if _, err := Mine(db, Options{MinSupport: 0, MaxGap: 1}); err == nil {
		t.Error("MinSupport=0 accepted")
	}
	if _, err := Mine(db, Options{MinSupport: 1, MinGap: 2, MaxGap: 1}); err == nil {
		t.Error("bad gap range accepted")
	}
	if _, err := Mine(db, Options{MinSupport: 1, MaxGap: 1, MaxPatterns: -1}); err == nil {
		t.Error("negative MaxPatterns accepted")
	}
}

// TestPropertySupportMatchesBrute: flow support equals the backtracking
// oracle on random small inputs and random gap bounds.
func TestPropertySupportMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := seq.NewDB()
		names := []string{"A", "B", "C"}
		for i := 0; i < 1+r.Intn(3); i++ {
			n := r.Intn(10)
			ev := make([]string, n)
			for j := range ev {
				ev[j] = names[r.Intn(3)]
			}
			db.Add("", ev)
		}
		if db.Dict.Size() == 0 {
			return true
		}
		pattern := make([]seq.EventID, 1+r.Intn(3))
		for i := range pattern {
			pattern[i] = seq.EventID(r.Intn(db.Dict.Size()))
		}
		minGap := r.Intn(2)
		maxGap := minGap + r.Intn(4)
		got, err := Support(db, pattern, minGap, maxGap)
		if err != nil {
			return false
		}
		want := bruteGapSupport(db, pattern, minGap, maxGap)
		if got != want {
			t.Logf("seed %d: got %d want %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUnboundedGapMatchesCore: with MaxGap at least the sequence
// length, gap-constrained support equals the paper's unconstrained
// repetitive support.
func TestPropertyUnboundedGapMatchesCore(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := seq.NewDB()
		names := []string{"A", "B", "C"}
		maxLen := 0
		for i := 0; i < 1+r.Intn(3); i++ {
			n := r.Intn(12)
			if n > maxLen {
				maxLen = n
			}
			ev := make([]string, n)
			for j := range ev {
				ev[j] = names[r.Intn(3)]
			}
			db.Add("", ev)
		}
		if db.Dict.Size() == 0 {
			return true
		}
		pattern := make([]seq.EventID, 1+r.Intn(4))
		for i := range pattern {
			pattern[i] = seq.EventID(r.Intn(db.Dict.Size()))
		}
		got, err := Support(db, pattern, 0, maxLen+1)
		if err != nil {
			return false
		}
		ix := seq.NewIndex(db)
		want := core.SupportOf(ix, pattern)
		if got != want {
			t.Logf("seed %d: gapped %d, core %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}

// brutePatterns enumerates the frequent gap-constrained patterns of db by
// brute force over the prefix-closed space, in DFS preorder over ascending
// event IDs — the order Mine emits them in.
func brutePatterns(db *seq.DB, minSup, minGap, maxGap, maxLen int) []Pattern {
	var out []Pattern
	var pattern []seq.EventID
	var rec func()
	rec = func() {
		for e := 0; e < db.Dict.Size(); e++ {
			pattern = append(pattern, seq.EventID(e))
			if sup := bruteGapSupport(db, pattern, minGap, maxGap); sup >= minSup {
				out = append(out, Pattern{Events: append([]seq.EventID(nil), pattern...), Support: sup})
				if len(pattern) < maxLen {
					rec()
				}
			}
			pattern = pattern[:len(pattern)-1]
		}
	}
	rec()
	return out
}

// samePatterns reports whether got equals want pattern by pattern, in order.
func samePatterns(t *testing.T, db *seq.DB, got, want []Pattern) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Logf("got %d patterns, want %d", len(got), len(want))
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if db.PatternString(g.Events) != db.PatternString(w.Events) || g.Support != w.Support {
			t.Logf("pattern %d: got %s:%d, want %s:%d", i,
				db.PatternString(g.Events), g.Support, db.PatternString(w.Events), w.Support)
			return false
		}
	}
	return true
}

// TestMineComplete: the miner emits exactly the frequent gap-constrained
// patterns, in the brute enumeration's order, for MinGap in {0,1,2} and
// MaxGap up to the longest sequence; with MaxPatterns it emits the brute
// enumeration's first MaxPatterns patterns and marks the run truncated.
func TestMineComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := seq.NewDB()
		names := []string{"A", "B", "C"}
		longest := 0
		for i := 0; i < 1+r.Intn(3); i++ {
			n := r.Intn(9)
			longest = max(longest, n)
			ev := make([]string, n)
			for j := range ev {
				ev[j] = names[r.Intn(3)]
			}
			db.Add("", ev)
		}
		minSup := 1 + r.Intn(2)
		minGap := r.Intn(3)
		maxGap := minGap + r.Intn(max(longest-minGap, 0)+1)
		const maxLen = 4
		opt := Options{MinSupport: minSup, MinGap: minGap, MaxGap: maxGap, MaxPatternLength: maxLen}
		want := brutePatterns(db, minSup, minGap, maxGap, maxLen)
		res, err := Mine(db, opt)
		if err != nil {
			t.Log(err)
			return false
		}
		if res.Truncated || !samePatterns(t, db, res.Patterns, want) {
			t.Logf("seed %d, %+v: truncated=%v", seed, opt, res.Truncated)
			return false
		}
		opt.MaxPatterns = 1 + r.Intn(6)
		res, err = Mine(db, opt)
		if err != nil {
			t.Log(err)
			return false
		}
		truncated := len(want) >= opt.MaxPatterns
		if truncated {
			want = want[:opt.MaxPatterns]
		}
		if res.Truncated != truncated || !samePatterns(t, db, res.Patterns, want) {
			t.Logf("seed %d, %+v: truncated=%v, want %v", seed, opt, res.Truncated, truncated)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

// TestMineSteadyStateAllocs: the node expansion and the max-flow reuse
// their storage, so a repeat Mine allocates per emitted pattern (its event
// slice and the result's growth) plus a constant for the miner's arenas.
func TestMineSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := seq.NewDB()
	names := []string{"A", "B", "C", "D", "E", "F"}
	for i := 0; i < 40; i++ {
		ev := make([]string, 30)
		for j := range ev {
			ev[j] = names[r.Intn(len(names))]
		}
		db.Add("", ev)
	}
	opt := Options{MinSupport: 20, MinGap: 1, MaxGap: 3}
	res, err := Mine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowCalls == 0 || len(res.Patterns) < 50 {
		t.Fatalf("workload too small: %d patterns, %d flows", len(res.Patterns), res.FlowCalls)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Mine(db, opt); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4*len(res.Patterns) + 100); allocs > limit {
		t.Errorf("Mine allocates %.0f times for %d patterns, want <= %.0f", allocs, len(res.Patterns), limit)
	}
	t.Logf("%d patterns, %d flows, %.0f allocs", len(res.Patterns), res.FlowCalls, allocs)
}

func TestMineContiguous(t *testing.T) {
	// MaxGap = 0 mines repeating substrings.
	db := mkDB("ABCABCABC")
	res, err := Mine(db, Options{MinSupport: 3, MaxGap: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range res.Patterns {
		got[db.PatternString(p.Events)] = p.Support
	}
	for pat, want := range map[string]int{"A": 3, "B": 3, "C": 3, "AB": 3, "BC": 3, "ABC": 3} {
		if got[pat] != want {
			t.Errorf("sup(%s) = %d, want %d", pat, got[pat], want)
		}
	}
	if _, ok := got["AC"]; ok {
		t.Error("AC is not contiguous and must not be frequent at MaxGap=0")
	}
}

func TestMineTruncation(t *testing.T) {
	db := mkDB("ABCABCABC")
	res, err := Mine(db, Options{MinSupport: 1, MaxGap: 1, MaxPatterns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 || !res.Truncated {
		t.Errorf("patterns=%d truncated=%v", len(res.Patterns), res.Truncated)
	}
}

// TestAprioriFailsUnderGaps documents WHY the package cannot reuse the
// paper's Apriori property: a sub-pattern can be less frequent than its
// super-pattern once gaps are bounded.
func TestAprioriFailsUnderGaps(t *testing.T) {
	db := mkDB("ACB")
	acb, err := Support(db, mkPat(db, "ACB"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := Support(db, mkPat(db, "AB"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(acb > ab) {
		t.Errorf("expected sup(ACB)=%d > sup(AB)=%d under gap=0 (Apriori violation)", acb, ab)
	}
	// Prefix anti-monotonicity still holds: sup(AC) >= sup(ACB).
	ac, err := Support(db, mkPat(db, "AC"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ac < acb {
		t.Errorf("prefix monotonicity violated: sup(AC)=%d < sup(ACB)=%d", ac, acb)
	}
}
