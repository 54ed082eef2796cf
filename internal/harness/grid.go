package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/seq"
)

// GridSpec is a JSON-decodable experiment grid for the top-k scaling
// runner: the cross product of modes × k × workers is executed Repeat
// times each over one generated dataset, producing one GridRow per run.
// Zero-valued fields select the defaults of the README's published
// experiment (Quest D1C20N1S20, closed, k ∈ {10,100,1000},
// workers ∈ {1,2,4,8}, 3 repeats).
type GridSpec struct {
	// Quest parameterizes the generated dataset (see datagen.QuestParams);
	// nil selects the benchmark suite's D1C20N1S20 seed-1 workload.
	Quest *datagen.QuestParams `json:"quest,omitempty"`
	// Modes lists the searches to run: "closed" (CloTopK) and/or "all".
	Modes []string `json:"modes,omitempty"`
	// Ks are the top-k sizes to sweep.
	Ks []int `json:"ks,omitempty"`
	// Workers are the requested worker counts to sweep; the rows record
	// both the request and the post-clamp effective count.
	Workers []int `json:"workers,omitempty"`
	// MaxLen bounds pattern length (0 = unbounded).
	MaxLen int `json:"maxLen,omitempty"`
	// Repeat is how many times each cell runs (medians smooth scheduler
	// noise); 0 selects 3.
	Repeat int `json:"repeat,omitempty"`
}

func (s GridSpec) withDefaults() GridSpec {
	if s.Quest == nil {
		s.Quest = &datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1}
	}
	if len(s.Modes) == 0 {
		s.Modes = []string{"closed"}
	}
	if len(s.Ks) == 0 {
		s.Ks = []int{10, 100, 1000}
	}
	if len(s.Workers) == 0 {
		s.Workers = []int{1, 2, 4, 8}
	}
	if s.Repeat == 0 {
		s.Repeat = 3
	}
	return s
}

// ParseGridSpec decodes a grid spec from JSON, rejecting unknown fields so
// a typo in an experiment file fails loudly instead of silently running
// the defaults.
func ParseGridSpec(r io.Reader) (GridSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s GridSpec
	if err := dec.Decode(&s); err != nil {
		return GridSpec{}, fmt.Errorf("harness: bad grid spec: %w", err)
	}
	return s, nil
}

// GridRow is one top-k run of the grid.
type GridRow struct {
	Dataset          string
	Mode             string // "closed" or "all"
	K                int
	WorkersRequested int
	WorkersEffective int
	Repeat           int // 1-based repetition index
	Elapsed          time.Duration
	Patterns         int
	FrontierPeak     int
	ArenaBytes       int64
}

// RunGrid executes the grid and returns one row per run, in execution
// order (mode-major, then k, then workers, then repeat).
func RunGrid(spec GridSpec) ([]GridRow, error) {
	spec = spec.withDefaults()
	db, err := datagen.Quest(*spec.Quest)
	if err != nil {
		return nil, err
	}
	ix := seq.NewIndex(db)
	name := spec.Quest.Name()
	var rows []GridRow
	for _, mode := range spec.Modes {
		var closed bool
		switch mode {
		case "closed":
			closed = true
		case "all":
		default:
			return nil, fmt.Errorf("harness: unknown grid mode %q (want \"closed\" or \"all\")", mode)
		}
		for _, k := range spec.Ks {
			for _, workers := range spec.Workers {
				for rep := 1; rep <= spec.Repeat; rep++ {
					res, err := core.MineTopKParallel(context.Background(), ix, k, closed, spec.MaxLen, workers)
					if err != nil {
						return nil, err
					}
					rows = append(rows, GridRow{
						Dataset:          name,
						Mode:             mode,
						K:                k,
						WorkersRequested: workers,
						WorkersEffective: res.Stats.WorkersEffective,
						Repeat:           rep,
						Elapsed:          res.Stats.Duration,
						Patterns:         res.NumPatterns,
						FrontierPeak:     res.Stats.FrontierPeak,
						ArenaBytes:       res.Stats.ArenaBytes,
					})
				}
			}
		}
	}
	return rows, nil
}

// WriteGridCSV writes the rows as CSV (one line per run, stable column
// order) for downstream plotting.
func WriteGridCSV(w io.Writer, rows []GridRow) error {
	if _, err := fmt.Fprintln(w, "dataset,mode,k,workers_requested,workers_effective,repeat,elapsed_ns,patterns,frontier_peak,arena_bytes"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d\n",
			r.Dataset, r.Mode, r.K, r.WorkersRequested, r.WorkersEffective,
			r.Repeat, r.Elapsed.Nanoseconds(), r.Patterns, r.FrontierPeak, r.ArenaBytes); err != nil {
			return err
		}
	}
	return nil
}

// gridCell aggregates the repeats of one (mode, k, workers) grid cell.
type gridCell struct {
	mode                 string
	k, workers           int
	effective            int
	elapsed              []time.Duration
	patterns             int
	frontierPeak         int
	arenaBytes           int64
	median               time.Duration
	speedup              float64 // median(workers=1) / median, same (mode, k)
	haveBaseline, isBase bool
}

// GridSummaryTable renders per-cell medians plus the parallel speedup
// against the same (mode, k) cell at workers=1 — the table the README's
// "Measuring on your hardware" section publishes.
func GridSummaryTable(rows []GridRow) string {
	cells := make(map[string]*gridCell)
	var order []string
	for _, r := range rows {
		key := fmt.Sprintf("%s|%d|%d", r.Mode, r.K, r.WorkersRequested)
		c, ok := cells[key]
		if !ok {
			c = &gridCell{mode: r.Mode, k: r.K, workers: r.WorkersRequested}
			cells[key] = c
			order = append(order, key)
		}
		c.elapsed = append(c.elapsed, r.Elapsed)
		c.effective = r.WorkersEffective
		c.patterns = r.Patterns
		c.frontierPeak = r.FrontierPeak
		c.arenaBytes = r.ArenaBytes
	}
	for _, c := range cells {
		c.median = medianDuration(c.elapsed)
	}
	for _, c := range cells {
		base, ok := cells[fmt.Sprintf("%s|%d|%d", c.mode, c.k, 1)]
		if ok && c.median > 0 {
			c.haveBaseline = true
			c.isBase = c.workers == 1
			c.speedup = float64(base.median) / float64(c.median)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %8s %10s %12s %10s %10s %12s %9s\n",
		"mode", "k", "workers", "effective", "median", "patterns", "frontier", "arena", "speedup")
	for _, key := range order {
		c := cells[key]
		speedup := "-"
		if c.haveBaseline {
			speedup = fmt.Sprintf("%.2fx", c.speedup)
		}
		fmt.Fprintf(&b, "%-8s %6d %8d %10d %12s %10d %10d %12s %9s\n",
			c.mode, c.k, c.workers, c.effective, fmtDuration(c.median),
			c.patterns, c.frontierPeak, fmtBytes(c.arenaBytes), speedup)
	}
	return b.String()
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted[len(sorted)/2]
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
