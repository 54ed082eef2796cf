// Command perfbench is the mining service's end-to-end benchmark. It
// starts the real reprod binary on loopback, drives one workload from a
// single load-generator process, checks every response against results
// mined in-process from the same seed, and prints each metric by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records client-side spans and adds an in-process layer pass, and
// the metrics are the per-layer ones. See README.md and run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	reprod   string // reprod binary
	out      string // working directory: temporary databases, span files
	root     string // checkout the binaries were built from
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-mine, hot-replay or ingest-mine")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed sends the same bytes")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&cfg.trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.reprod, "reprod", "", "path of the reprod binary under test")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for temporary databases and span files")
	flag.StringVar(&cfg.root, "root", ".", "checkout the binaries were built from, for provenance")
	flag.Parse()
	if err := validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func validate(cfg config) error {
	if _, err := findWorkload(cfg.workload); err != nil {
		return err
	}
	switch {
	case cfg.reprod == "":
		return fmt.Errorf("-reprod is required (run.sh builds it)")
	case cfg.seconds < 1:
		return fmt.Errorf("--seconds must be >= 1")
	case cfg.trace != 0 && cfg.trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Printed before the verdict line, not part of it.
	header     string
	provenance provenance
	notes      []string // lines not in the verdict (failed_frac, ...)
	order      []string // metric names in the order set
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) print(f *os.File) {
	fmt.Fprintln(f, r.header)
	prov, _ := json.Marshal(r.provenance)
	fmt.Fprintf(f, "provenance %s\n", prov)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	for _, k := range r.order {
		m := r.Metrics[k]
		fmt.Fprintf(f, "%-40s %14.4f %s\n", k, m.Value, m.Unit)
	}
	line, _ := json.Marshal(r) // the exported fields: the verdict
	fmt.Fprintln(f, string(line))
}
