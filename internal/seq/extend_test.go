package seq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomDB builds a database of n random sequences over a small alphabet.
func randomDB(r *rand.Rand, n, maxLen int) *DB {
	db := NewDB()
	alphabet := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		length := 1 + r.Intn(maxLen)
		names := make([]string, length)
		for j := range names {
			names[j] = alphabet[r.Intn(len(alphabet))]
		}
		db.Add(fmt.Sprintf("S%d", i+1), names)
	}
	return db
}

// indexesEqual asserts ix answers every primitive identically to want over
// db's contents, and that got's per-event sequence lists are exactly the
// sequences whose contents hold each event.
func indexesEqual(t *testing.T, db *DB, want, got *Index) {
	t.Helper()
	nEvents := EventID(db.Dict.Size())
	for e := EventID(0); e < nEvents; e++ {
		if w, g := want.SingletonSupport(e), got.SingletonSupport(e); w != g {
			t.Fatalf("SingletonSupport(%d): want %d, got %d", e, w, g)
		}
		var brute []int32
		for i, s := range db.Seqs {
			for _, x := range s {
				if x == e {
					brute = append(brute, int32(i))
					break
				}
			}
		}
		if w, g := fmt.Sprint(want.SequencesWith(e)), fmt.Sprint(got.SequencesWith(e)); w != g || g != fmt.Sprint(brute) {
			t.Fatalf("SequencesWith(%d): fresh %s, got %s, contents %v", e, w, g, brute)
		}
	}
	if g := got.SequencesWith(nEvents); len(g) != 0 {
		t.Fatalf("SequencesWith(unknown event) = %v, want empty", g)
	}
	for i := range db.Seqs {
		if w, g := fmt.Sprint(want.EventStats(i)), fmt.Sprint(got.EventStats(i)); w != g {
			t.Fatalf("EventStats(%d): fresh %s, got %s", i, w, g)
		}
	}
	for i := range db.Seqs {
		for e := EventID(0); e < nEvents; e++ {
			pw, pg := want.Positions(i, e), got.Positions(i, e)
			if len(pw) != len(pg) {
				t.Fatalf("Positions(%d,%d): want %v, got %v", i, e, pw, pg)
			}
			for k := range pw {
				if pw[k] != pg[k] {
					t.Fatalf("Positions(%d,%d): want %v, got %v", i, e, pw, pg)
				}
			}
			if w, g := want.LastPos(i, e), got.LastPos(i, e); w != g {
				t.Fatalf("LastPos(%d,%d): want %d, got %d", i, e, w, g)
			}
			if w, g := want.Count(i, e), got.Count(i, e); w != g {
				t.Fatalf("Count(%d,%d): want %d, got %d", i, e, w, g)
			}
			for lowest := int32(-1); lowest <= int32(len(db.Seqs[i])+1); lowest++ {
				if w, g := want.Next(i, e, lowest), got.Next(i, e, lowest); w != g {
					t.Fatalf("Next(%d,%d,%d): want %d, got %d", i, e, lowest, w, g)
				}
			}
		}
	}
}

func TestExtendAppendSequencesMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, fastNext := range []bool{false, true} {
		t.Run(fmt.Sprintf("fastNext=%t", fastNext), func(t *testing.T) {
			db := randomDB(r, 6, 20)
			base := NewIndexWith(db, IndexOptions{FastNext: fastNext})

			grown := db.Extend()
			grown.Add("S7", []string{"a", "g", "a", "b", "g"}) // new event "g"
			grown.Add("", []string{"c", "c", "f"})

			got := base.Extend(grown, nil)
			want := NewIndexWith(grown, IndexOptions{FastNext: fastNext})
			indexesEqual(t, grown, want, got)

			// The sealed base index still answers for the old database.
			fresh := NewIndexWith(db, IndexOptions{FastNext: fastNext})
			indexesEqual(t, db, fresh, base)
		})
	}
}

func TestExtendChangedSequenceMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(r, 6, 15)
		base := NewIndexWith(db, IndexOptions{FastNext: trial%2 == 0})

		grown := db.Extend()
		grown.Seqs = append([]Sequence(nil), grown.Seqs...) // force a fresh backing array
		// One to three changed sequences, ascending, each either growing
		// copy-on-write (it keeps its events and may gain "x") or replaced
		// wholesale by an upsert (it loses every event it had and gains
		// "y").
		var changed []int
		for i := range db.Seqs {
			if r.Intn(3) == 0 || (len(changed) == 0 && i == len(db.Seqs)-1) {
				changed = append(changed, i)
			}
			if len(changed) == 3 {
				break
			}
		}
		for _, i := range changed {
			old := grown.Seqs[i]
			if r.Intn(2) == 0 {
				repl := make(Sequence, len(old), len(old)+3)
				copy(repl, old)
				grown.Seqs[i] = append(repl, grown.Dict.Intern("b"), grown.Dict.Intern("x"), grown.Dict.Intern("a"))
			} else {
				grown.Seqs[i] = Sequence{grown.Dict.Intern("y"), grown.Dict.Intern("y")}
			}
		}
		grown.Add("", []string{"x", "b"})

		got := base.Extend(grown, changed)
		want := NewIndexWith(grown, IndexOptions{FastNext: base.Options().FastNext})
		indexesEqual(t, grown, want, got)
		// The base index keeps answering for its own generation.
		indexesEqual(t, db, NewIndexWith(db, base.Options()), base)
	}
}

// TestExtendSharesUnchangedTables proves the O(delta) claim structurally:
// the position lists of untouched sequences in the extended index are the
// same backing arrays as the base index's, i.e. Extend did not rebuild
// them.
func TestExtendSharesUnchangedTables(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, 8, 25)
	base := NewIndexWith(db, IndexOptions{FastNext: true})

	grown := db.Extend()
	grown.Add("S9", []string{"a", "b", "c"})
	got := base.Extend(grown, nil)

	for i := range db.Seqs {
		for _, e := range base.Events(i) {
			bp, gp := base.Positions(i, e), got.Positions(i, e)
			if len(bp) == 0 {
				continue
			}
			if &bp[0] != &gp[0] {
				t.Fatalf("sequence %d event %d: position list was rebuilt, not shared", i, e)
			}
		}
	}
	if !got.HasFastNext(len(grown.Seqs) - 1) {
		t.Fatalf("appended sequence got no successor table")
	}
}

// TestExtendBudgetAccounting checks the FastNext byte budget carries across
// extensions: tables inherited from the base index count against the
// budget, so an appended sequence whose table would overflow it falls back
// to binary search — and FastNextBytes never exceeds the budget.
func TestExtendBudgetAccounting(t *testing.T) {
	db := NewDB()
	db.AddChars("S1", "ABABABAB")
	// Budget fits S1's table (2 events × 9 rows × 4B = 72B) with no room
	// for another of the same size.
	base := NewIndexWith(db, IndexOptions{FastNext: true, FastNextMemBudget: 100})
	if !base.HasFastNext(0) {
		t.Fatalf("S1 should fit the budget")
	}

	grown := db.Extend()
	grown.AddChars("S2", "BABABABA")
	got := base.Extend(grown, nil)
	if !got.HasFastNext(0) {
		t.Fatalf("inherited table lost")
	}
	if got.HasFastNext(1) {
		t.Fatalf("S2's table should exceed the remaining budget")
	}
	if got.FastNextBytes() > 100 {
		t.Fatalf("FastNextBytes %d exceeds budget", got.FastNextBytes())
	}

	// A smaller sequence still fits the leftover budget.
	grown2 := grown.Extend()
	grown2.AddChars("S3", "AB") // 2 events × 3 rows × 4B = 24B
	got2 := got.Extend(grown2, nil)
	if !got2.HasFastNext(2) {
		t.Fatalf("S3 should fit the leftover budget")
	}
	if got2.FastNextBytes() != 72+24 {
		t.Fatalf("FastNextBytes = %d, want 96", got2.FastNextBytes())
	}
}

// TestExtendChangedReleasesBudget: rebuilding a changed sequence releases
// its old table's bytes before charging the new one.
func TestExtendChangedReleasesBudget(t *testing.T) {
	db := NewDB()
	db.AddChars("S1", "ABABABAB")
	base := NewIndexWith(db, IndexOptions{FastNext: true, FastNextMemBudget: 150})

	grown := db.Extend()
	repl := make(Sequence, len(db.Seqs[0]), len(db.Seqs[0])+2)
	copy(repl, db.Seqs[0])
	repl = append(repl, grown.Dict.Intern("A"), grown.Dict.Intern("B"))
	grown.Seqs = append([]Sequence(nil), grown.Seqs...)
	grown.Seqs[0] = repl

	got := base.Extend(grown, []int{0})
	// New table: 2 events × 11 rows × 4B = 88B <= 150 only if the old 72B
	// were released first (72 + 88 = 160 > 150).
	if !got.HasFastNext(0) {
		t.Fatalf("rebuilt table should fit after releasing the old bytes")
	}
	if got.FastNextBytes() != 88 {
		t.Fatalf("FastNextBytes = %d, want 88", got.FastNextBytes())
	}
}

// TestSequencesWithConcurrentFirstUse: parallel miners share one index and
// may all ask for the per-event sequence lists before anyone has, so the
// lazy build must happen once and every caller must see the finished
// lists, on a fresh index and on an extended one. Run under -race.
func TestSequencesWithConcurrentFirstUse(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	db := randomDB(r, 40, 20)
	grown := db.Extend()
	grown.Add("", []string{"a", "z"})
	for _, tc := range []struct {
		db *DB
		ix *Index
	}{
		{db, NewIndex(db)},
		{grown, NewIndex(db).Extend(grown, nil)},
	} {
		want := NewIndex(tc.db)
		var wg sync.WaitGroup
		got := make([][]string, 8)
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := EventID(0); int(e) < tc.db.Dict.Size(); e++ {
					got[w] = append(got[w], fmt.Sprint(tc.ix.SequencesWith(e)))
				}
			}()
		}
		wg.Wait()
		for w := range got {
			for e, g := range got[w] {
				if wl := fmt.Sprint(want.SequencesWith(EventID(e))); g != wl {
					t.Fatalf("worker %d: SequencesWith(%d) = %s, want %s", w, e, g, wl)
				}
			}
		}
	}
}
