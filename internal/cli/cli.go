// Package cli implements the logic behind the cmd/ executables so it can
// be unit-tested: mining (cmd/gsgrow), dataset generation (cmd/datagen).
// The mains parse flags into the config structs here and pass streams.
package cli

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gapped"
	"repro/internal/postprocess"
	"repro/internal/seq"
)

// ParseFormat maps a CLI format name to the seq format.
func ParseFormat(name string) (seq.Format, error) {
	switch name {
	case "tokens":
		return seq.FormatTokens, nil
	case "chars":
		return seq.FormatChars, nil
	case "spmf":
		return seq.FormatSPMF, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want tokens, chars, or spmf)", name)
	}
}

// MineConfig mirrors cmd/gsgrow's flags.
type MineConfig struct {
	Format      string  // tokens, chars, spmf
	MinSup      int     // support threshold
	Closed      bool    // CloGSgrow instead of GSgrow
	MaxLen      int     // maximum pattern length, 0 = unbounded
	MaxPatterns int     // pattern budget, 0 = unbounded
	Instances   bool    // print support sets
	Stats       bool    // print statistics only
	Support     string  // comma-separated pattern: report its support only
	Density     float64 // case-study post-processing threshold, 0 = off
	Top         int     // print only the first N patterns, 0 = all
	TopK        int     // mine the K highest-support patterns instead of using MinSup
	Workers     int     // parallel mining fan-out, <= 1 sequential

	Semantics     string  // occurrence semantics: repetitive, nonoverlap, compressed, gapped
	MinGap        int     // gapped semantics: minimum gap between consecutive events
	MaxGap        int     // gapped semantics: maximum gap between consecutive events
	CompressDelta float64 // compressed semantics: cover tolerance delta, 0 = default
}

// coreSemantics maps the public semantics enum to the kernel strategy;
// repetitive maps to nil so the default hot path stays strategy-free.
func coreSemantics(s repro.Semantics) core.Semantics {
	switch s {
	case repro.SemanticsNonOverlapping:
		return core.NonOverlapping
	case repro.SemanticsCompressed:
		return core.Compressed
	default:
		return nil
	}
}

// Mine reads a database from in and writes mining output to out.
func Mine(cfg MineConfig, in io.Reader, out io.Writer) error {
	f, err := ParseFormat(cfg.Format)
	if err != nil {
		return err
	}
	sem, err := repro.ParseSemantics(cfg.Semantics)
	if err != nil {
		return err
	}
	if (cfg.MinGap != 0 || cfg.MaxGap != 0) && sem != repro.SemanticsGapped {
		return fmt.Errorf("-mingap/-maxgap require -semantics gapped")
	}
	if cfg.CompressDelta != 0 && sem != repro.SemanticsCompressed {
		return fmt.Errorf("-compress-delta requires -semantics compressed")
	}
	if cfg.TopK > 0 && sem != repro.SemanticsRepetitive {
		return fmt.Errorf("-topk supports only repetitive semantics")
	}
	// Top-k mode has no instance collection and k already is the pattern
	// budget; silently ignoring these would misreport what ran.
	if cfg.TopK > 0 && cfg.Instances {
		return fmt.Errorf("-instances is not supported in top-k mode")
	}
	if cfg.TopK > 0 && cfg.MaxPatterns > 0 {
		return fmt.Errorf("-maxpatterns conflicts with -topk (k already bounds the result)")
	}
	if cfg.Closed && (sem == repro.SemanticsNonOverlapping || sem == repro.SemanticsGapped) {
		return fmt.Errorf("-closed is not supported with %s semantics", sem)
	}
	if sem == repro.SemanticsGapped {
		if cfg.Instances {
			return fmt.Errorf("-instances is not supported with gapped semantics")
		}
		if cfg.Workers > 1 {
			return fmt.Errorf("-workers > 1 is not supported with gapped semantics")
		}
	}
	db, err := seq.Parse(in, f)
	if err != nil {
		return err
	}
	if cfg.Stats {
		_, err := io.WriteString(out, seq.ComputeStats(db).Table())
		return err
	}
	ix := seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})

	if cfg.Support != "" {
		return reportSupport(cfg, db, ix, out)
	}

	var res *core.Result
	var err2 error
	algo := "GSgrow"
	opt := core.Options{
		MinSupport:       cfg.MinSup,
		Closed:           cfg.Closed,
		MaxPatternLength: cfg.MaxLen,
		MaxPatterns:      cfg.MaxPatterns,
		CollectInstances: cfg.Instances,
		Semantics:        coreSemantics(sem),
		CompressDelta:    cfg.CompressDelta,
	}
	switch {
	case sem == repro.SemanticsGapped:
		res, err2 = mineGapped(cfg, db)
		algo = "GapGSgrow"
	case cfg.TopK > 0:
		res, err2 = core.MineTopKParallel(context.Background(), ix, cfg.TopK, cfg.Closed, cfg.MaxLen, cfg.Workers)
		algo = "TopK"
	default:
		res, err2 = core.MineParallel(ix, opt, cfg.Workers)
	}
	if err2 != nil {
		return err2
	}
	switch sem {
	case repro.SemanticsNonOverlapping:
		algo = "GSgrow-NonOverlap"
	case repro.SemanticsCompressed:
		algo = "CRGSgrow"
	default:
		if cfg.Closed {
			algo = "Clo" + algo
		}
	}
	fmt.Fprintf(out, "# %s min_sup=%d: %d patterns in %v", algo, cfg.MinSup, res.NumPatterns, res.Stats.Duration)
	if res.Stats.Truncated {
		fmt.Fprint(out, " (truncated)")
	}
	fmt.Fprintln(out)
	if cfg.TopK > 0 {
		// Frontier observability for the arena-backed best-first search:
		// high-water frontier size and the node-arena bytes behind it,
		// plus the requested→effective worker clamp.
		fmt.Fprintf(out, "# topk frontier: peak=%d nodes, arena=%d bytes, workers=%d/%d (effective/requested)\n",
			res.Stats.FrontierPeak, res.Stats.ArenaBytes, res.Stats.WorkersEffective, res.Stats.WorkersRequested)
	}

	patterns := res.Patterns
	if cfg.Density > 0 {
		patterns = postprocess.CaseStudyPipeline(patterns, cfg.Density)
		fmt.Fprintf(out, "# post-processing (density>%.2f, maximal, ranked): %d patterns\n", cfg.Density, len(patterns))
	} else {
		sort.SliceStable(patterns, func(a, b int) bool {
			if patterns[a].Support != patterns[b].Support {
				return patterns[a].Support > patterns[b].Support
			}
			return len(patterns[a].Events) > len(patterns[b].Events)
		})
	}
	if cfg.Top > 0 && cfg.Top < len(patterns) {
		patterns = patterns[:cfg.Top]
	}
	for _, p := range patterns {
		fmt.Fprintf(out, "%d\t%s\n", p.Support, db.PatternString(p.Events))
		if cfg.Instances {
			for _, ins := range p.Instances {
				fmt.Fprintf(out, "\t%s %v\n", db.Label(int(ins.Seq)), ins.Land)
			}
		}
	}
	return nil
}

// mineGapped routes a gapped-semantics run to the gap-constrained miner
// and adapts its result to the shared printing path.
func mineGapped(cfg MineConfig, db *seq.DB) (*core.Result, error) {
	gres, err := gapped.Mine(db, gapped.Options{
		MinSupport:       cfg.MinSup,
		MinGap:           cfg.MinGap,
		MaxGap:           cfg.MaxGap,
		MaxPatternLength: cfg.MaxLen,
		MaxPatterns:      cfg.MaxPatterns,
	})
	if err != nil {
		return nil, err
	}
	res := &core.Result{Patterns: make([]core.Pattern, len(gres.Patterns))}
	for i, p := range gres.Patterns {
		res.Patterns[i] = core.Pattern{Events: p.Events, Support: p.Support}
	}
	res.NumPatterns = len(res.Patterns)
	res.Stats.Truncated = gres.Truncated
	res.Stats.Duration = gres.Duration
	return res, nil
}

func reportSupport(cfg MineConfig, db *seq.DB, ix *seq.Index, out io.Writer) error {
	names := strings.Split(cfg.Support, ",")
	sup := core.SupportOfNames(ix, names)
	fmt.Fprintf(out, "sup(%s) = %d\n", strings.Join(names, " "), sup)
	if cfg.Instances && sup > 0 {
		ids, err := db.EventSeq(names)
		if err != nil {
			return err
		}
		for _, ins := range core.ComputeSupportSet(ix, ids) {
			fmt.Fprintf(out, "  %s %v\n", db.Label(int(ins.Seq)), ins.Land)
		}
	}
	return nil
}

// GenerateConfig mirrors cmd/datagen's flags.
type GenerateConfig struct {
	Dataset string // quest, gazelle, tcas, jboss
	Format  string // tokens, chars, spmf
	Seed    int64
	Stats   bool

	D, C, N, S int // quest parameters
	Sequences  int // gazelle/tcas/jboss override (0 = paper default)
}

// Generate writes the requested dataset to out; statistics (when
// requested) go to statsOut.
func Generate(cfg GenerateConfig, out, statsOut io.Writer) error {
	var db *seq.DB
	var err error
	switch cfg.Dataset {
	case "quest":
		db, err = datagen.Quest(datagen.QuestParams{D: cfg.D, C: cfg.C, N: cfg.N, S: cfg.S, Seed: cfg.Seed})
	case "gazelle":
		db, err = datagen.Gazelle(datagen.GazelleParams{NumSequences: cfg.Sequences, Seed: cfg.Seed})
	case "tcas":
		db, err = datagen.TCAS(datagen.TCASParams{NumTraces: cfg.Sequences, Seed: cfg.Seed})
	case "jboss":
		db, err = datagen.JBoss(datagen.JBossParams{NumTraces: cfg.Sequences, Seed: cfg.Seed})
	default:
		return fmt.Errorf("unknown dataset %q (want quest, gazelle, tcas, or jboss)", cfg.Dataset)
	}
	if err != nil {
		return err
	}
	f, err := ParseFormat(cfg.Format)
	if err != nil {
		return err
	}
	if err := seq.Write(out, db, f); err != nil {
		return err
	}
	if cfg.Stats {
		if _, err := io.WriteString(statsOut, seq.ComputeStats(db).Table()); err != nil {
			return err
		}
	}
	return nil
}
