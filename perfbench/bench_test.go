package main

import (
	"bytes"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Fatal("p90 of 99 samples has 9 beyond it; want it withheld")
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 50 {
		t.Fatalf("p50 of 1..99 = %v, %v; want 50, true", v, ok)
	}
	xs = append(xs, 100)
	v, ok := percentile(xs, 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it; want it withheld")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if _, err := mustPercentile("x", xs[:50], 0.9); err == nil {
		t.Fatal("mustPercentile accepted an unsupported p90")
	}
}

// fakeClock advances only when slept on or when a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}
func (c *fakeClock) take(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	const interval = 100 * time.Millisecond
	// Every send takes 10ms, except send 2, which stalls for 350ms.
	var due []time.Time
	for i := 0; i < 10; i++ {
		due = append(due, start.Add(time.Duration(i)*interval))
	}
	got := openLoop(clk, due, func(i int) bool {
		if i == 2 {
			clk.take(350 * time.Millisecond)
			return false
		}
		clk.take(10 * time.Millisecond)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("%d sends in 1s at 10/s, want 10", len(got))
	}
	want := []struct{ late, latency time.Duration }{
		{0, 10 * time.Millisecond},
		{0, 10 * time.Millisecond},
		{0, 350 * time.Millisecond},                      // due 200, done at 550
		{250 * time.Millisecond, 260 * time.Millisecond}, // due 300, sent at 550
		{160 * time.Millisecond, 170 * time.Millisecond}, // due 400, sent at 560
		{70 * time.Millisecond, 80 * time.Millisecond},   // due 500, sent at 570
		{0, 10 * time.Millisecond},                       // due 600, sent on time again
	}
	for i, w := range want {
		if got[i].late != w.late || got[i].latency != w.latency {
			t.Errorf("send %d: late %v latency %v, want late %v latency %v", i, got[i].late, got[i].latency, w.late, w.latency)
		}
		if got[i].ok != (i != 2) {
			t.Errorf("send %d: ok %v, want %v", i, got[i].ok, i != 2)
		}
		if !got[i].due.Equal(due[i]) {
			t.Errorf("send %d due at %v, want %v", i, got[i].due, due[i])
		}
	}
}

func TestScheduleHasOneSendPerSlot(t *testing.T) {
	start := time.Unix(0, 0)
	const interval = 100 * time.Millisecond
	due := schedule(start, start.Add(20*time.Second), interval, rand.New(rand.NewSource(1)))
	if len(due) != 200 {
		t.Fatalf("%d sends in 20s at 10/s, want 200", len(due))
	}
	offsets := map[time.Duration]bool{}
	for i, d := range due {
		off := d.Sub(start.Add(time.Duration(i) * interval))
		if off < 0 || off >= interval {
			t.Fatalf("send %d at offset %v, outside its slot", i, off)
		}
		offsets[off] = true
	}
	if len(offsets) < 190 {
		t.Fatalf("only %d distinct offsets in 200 slots: the schedule is not jittered", len(offsets))
	}
	again := schedule(start, start.Add(20*time.Second), interval, rand.New(rand.NewSource(1)))
	for i := range due {
		if !due[i].Equal(again[i]) {
			t.Fatal("the same seed gave a different schedule")
		}
	}
}

func TestFailedFracCountsEveryFailureKind(t *testing.T) {
	statuses := map[string]int{"/ok": 200, "/created": 201, "/busy": 429, "/unavailable": 503, "/broken": 500, "/missing": 404}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(statuses[r.URL.Path])
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	// A port nothing listens on: bind one, then close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close()

	var tl tally
	var buf bytes.Buffer
	c := newClient()
	defer c.CloseIdleConnections()
	for _, path := range []string{"/ok", "/created", "/busy", "/unavailable", "/broken", "/missing"} {
		tl.add(send(c, srv.URL+path, "application/json", nil, &buf))
	}
	tl.add(send(c, refused+"/ok", "application/json", nil, &buf))

	if tl.attempted != 7 || tl.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 7 and 5", tl.attempted, tl.failed)
	}
	if got, want := tl.failedFrac(), 5.0/7.0; got != want {
		t.Fatalf("failed_frac %v, want %v", got, want)
	}
	for reason, n := range map[string]int{"429": 1, "503": 1, "500": 1, "404": 1, "transport": 1} {
		if tl.reasons[reason] != n {
			t.Errorf("reason %s counted %d times, want %d (all: %v)", reason, tl.reasons[reason], n, tl.reasons)
		}
	}
}

func TestCheckerRejectsCorruptAndTruncatedBodies(t *testing.T) {
	d := newPatternDigest()
	d.add([]string{"e001", "e002"}, 12)
	d.add([]string{"e003"}, 10)
	w := d.want()

	good := `{"numPatterns":2,"truncated":false,"patterns":[{"events":["e001","e002"],"support":12},{"events":["e003"],"support":10}]}`
	if _, err := checkMine([]byte(good), false, w); err != nil {
		t.Fatalf("good JSON rejected: %v", err)
	}
	for name, body := range map[string]string{
		"wrong support":  strings.Replace(good, `"support":12`, `"support":13`, 1),
		"renamed event":  strings.Replace(good, `"e003"`, `"e004"`, 1),
		"dropped":        `{"numPatterns":1,"truncated":false,"patterns":[{"events":["e001","e002"],"support":12}]}`,
		"count mismatch": strings.Replace(good, `"numPatterns":2`, `"numPatterns":3`, 1),
		"truncated flag": strings.Replace(good, `"truncated":false`, `"truncated":true`, 1),
		"cut short":      good[:len(good)-20],
		"garbage":        strings.Replace(good, `"events"`, `"ev`, 1),
	} {
		if _, err := checkMine([]byte(body), false, w); err == nil {
			t.Errorf("%s: corrupted JSON body accepted", name)
		}
	}
	if err := checkComplete([]byte(good[:len(good)-1]), false); err == nil {
		t.Error("JSON body without its closing brace passed the completeness check")
	}
	if err := checkComplete([]byte(good+"\n"), false); err != nil {
		t.Errorf("complete JSON body failed the completeness check: %v", err)
	}

	stream := `{"pattern":{"events":["e001","e002"],"support":12}}
{"pattern":{"events":["e003"],"support":10}}
{"summary":{"numPatterns":2,"truncated":false}}
`
	if _, err := checkMine([]byte(stream), true, w); err != nil {
		t.Fatalf("good NDJSON rejected: %v", err)
	}
	if err := checkComplete([]byte(stream), true); err != nil {
		t.Fatalf("complete NDJSON failed the completeness check: %v", err)
	}
	cut := stream[:strings.Index(stream, `{"summary"`)]
	if _, err := checkMine([]byte(cut), true, w); err == nil {
		t.Error("NDJSON stream without its summary line accepted")
	}
	if err := checkComplete([]byte(cut), true); err == nil {
		t.Error("NDJSON stream without its summary line passed the completeness check")
	}
	midLine := stream[:len(stream)-10]
	if err := checkComplete([]byte(midLine), true); err == nil {
		t.Error("NDJSON stream cut inside its summary line passed the completeness check")
	}
	after := stream + `{"pattern":{"events":["e009"],"support":9}}` + "\n"
	if _, err := checkMine([]byte(after), true, w); err == nil {
		t.Error("NDJSON stream with a line after the summary accepted")
	}
}

func TestDatasetIsDeterministicAndKeepsFig2Counts(t *testing.T) {
	a, err := newDataset(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newDataset(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newDataset(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.quest != b.quest || a.quest200 != b.quest200 || a.probe != b.probe {
		t.Fatal("same seed gave different inputs")
	}
	if a.quest == c.quest {
		t.Fatal("different seeds gave the same inputs")
	}
	if len(a.quest) != len(c.quest) {
		t.Fatalf("upload sizes differ across seeds: %d vs %d bytes", len(a.quest), len(c.quest))
	}
	if n := strings.Count(a.quest, "\n"); n != 1000 {
		t.Fatalf("quest has %d sequences, want 1000", n)
	}
	if n := strings.Count(a.quest200, "\n"); n != subsetSize {
		t.Fatalf("quest200 has %d sequences, want %d", n, subsetSize)
	}
	if testing.Short() {
		t.Skip("mining the Fig. 2 counts takes a few seconds")
	}
	// expectations asserts the Fig. 2 counts itself.
	if _, err := expectations(c, []shape{shClosed10, shAll10, shAll6}); err != nil {
		t.Fatal(err)
	}
}
