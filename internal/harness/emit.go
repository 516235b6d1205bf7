package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"ssync/internal/stats"
)

// Emitter renders a result set.
type Emitter interface {
	Emit(w io.Writer, results []Result) error
}

// EmitterFor maps a format name ("json", "csv" or "table") to its
// emitter.
func EmitterFor(format string) (Emitter, error) {
	switch format {
	case "json":
		return JSON{}, nil
	case "csv":
		return CSV{}, nil
	case "table", "":
		return Table{}, nil
	}
	return nil, fmt.Errorf("harness: unknown output format %q (have json, csv, table)", format)
}

// JSON emits the results as an indented JSON array.
type JSON struct{}

// Emit implements Emitter. Float statistics are rounded to three
// decimal places: full float64 precision makes committed result files
// churn on every regeneration, and nothing downstream reads digits a
// run-to-run rerun can't reproduce anyway.
func (JSON) Emit(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if results == nil {
		results = []Result{}
	}
	rounded := make([]Result, len(results))
	for i, r := range results {
		r.Stats.Mean = stats.Round(r.Stats.Mean, 3)
		r.Stats.Stddev = stats.Round(r.Stats.Stddev, 3)
		r.Stats.Min = stats.Round(r.Stats.Min, 3)
		r.Stats.Max = stats.Round(r.Stats.Max, 3)
		rounded[i] = r
	}
	return enc.Encode(rounded)
}

// CSV emits one row per result with a header line.
type CSV struct{}

// Emit implements Emitter.
func (CSV) Emit(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "platform", "threads", "metric", "mean", "stddev", "min", "max", "reps"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, r := range results {
		rec := []string{
			r.Experiment, r.Platform, strconv.Itoa(r.Threads), r.Metric,
			f(r.Stats.Mean), f(r.Stats.Stddev), f(r.Stats.Min), f(r.Stats.Max),
			strconv.FormatUint(r.Stats.N, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table renders one fixed-width table per experiment × platform, metrics
// as columns and thread counts as rows (0.00 where a metric has no value
// at a thread count).
type Table struct{}

// Emit implements Emitter.
func (Table) Emit(w io.Writer, results []Result) error {
	type group struct{ exp, plat string }
	type cell struct {
		metric  string
		threads int
	}
	type table struct {
		metrics []string
		threads []int
		mean    map[cell]float64
	}
	tables := map[group]*table{}
	var order []group
	for _, r := range results {
		g := group{r.Experiment, r.Platform}
		t := tables[g]
		if t == nil {
			t = &table{mean: map[cell]float64{}}
			tables[g] = t
			order = append(order, g)
		}
		if !slices.Contains(t.metrics, r.Metric) {
			t.metrics = append(t.metrics, r.Metric)
		}
		if !slices.Contains(t.threads, r.Threads) {
			t.threads = append(t.threads, r.Threads)
		}
		if _, dup := t.mean[cell{r.Metric, r.Threads}]; !dup {
			t.mean[cell{r.Metric, r.Threads}] = r.Stats.Mean
		}
	}
	for _, g := range order {
		t := tables[g]
		slices.Sort(t.threads)
		var b strings.Builder
		fmt.Fprintf(&b, "%s — %s\n%-10s", g.exp, g.plat, "threads")
		for _, m := range t.metrics {
			fmt.Fprintf(&b, " %14s", m)
		}
		b.WriteString("\n")
		for _, n := range t.threads {
			fmt.Fprintf(&b, "%-10d", n)
			for _, m := range t.metrics {
				fmt.Fprintf(&b, " %14.2f", t.mean[cell{m, n}])
			}
			b.WriteString("\n")
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
