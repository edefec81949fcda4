package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// colRounds is the paired-round count: each round runs the engine on
// the row-only and the column-carrying segments back to back (order
// alternating) and records the ratio of their map task times, so
// scheduler and GC drift land on both sides and cancel. Odd, so the
// median is one round's honest ratio.
const colRounds = 15

// Columnar measures what attaching the column form to the input buys
// the one SYMPLE mapper on the hot-loop queries (G1, R1, B2). Both sides
// run the same engine with the same memo configuration over the same
// records: on row-only segments the mapper groups through scalarBatch
// (the scalar GroupBy per record), on column-carrying segments through
// the query's vectorized GroupByBatch. Everything after grouping — the
// batched symbolic execution pass, encoding, shuffle, reduce — is
// shared, so the difference in map task time is the grouping step. The
// record→column conversion (data.ToColumnar over the whole corpus) is
// timed on its own, so the table also says how many runs it takes to
// pay it back. Every run is digest-checked against the sequential
// reference. Results go to BENCH_COLUMNAR.json.
func Columnar(d *Datasets, memoSize int) (*Table, error) {
	t := &Table{
		Title:  "Column-carrying vs row-only segments on the one SYMPLE mapper",
		Header: []string{"Query", "rows map ms", "cols map ms", "speedup", "columnarize ms", "break-even runs", "exec rec/s rows", "exec rec/s cols", "run probes"},
		Notes: []string{
			fmt.Sprintf("map ms: summed map task time, median of %d rounds; speedup: median of per-round paired ratios (rows / cols)", colRounds),
			"columnarize ms: data.ToColumnar over every segment of the corpus, median of the same rounds",
			"break-even runs: columnarize ms / (rows map ms - cols map ms); '-' when columns save nothing",
			"exec rec/s: symbolic events / timed exec pass, best of the rounds — the pass both sides share",
			"identical memo config both sides; outputs digest-checked against the sequential reference every run",
			"written to BENCH_COLUMNAR.json",
		},
	}
	rep := colReport{Rounds: colRounds, MemoSize: memoSize, MaxProcs: runtime.GOMAXPROCS(0)}

	for _, id := range []string{"G1", "R1", "B2"} {
		spec := queries.ByID(id)
		base, err := d.For(spec.Dataset, false)
		if err != nil {
			return nil, err
		}
		plan := data.ColSpecFor(spec.Dataset)
		// Two private views of the same records: one without columns and
		// one with them, so the shared datasets are never mutated.
		rows := make([]*mapreduce.Segment, len(base))
		cols := make([]*mapreduce.Segment, len(base))
		for i, s := range base {
			rows[i] = &mapreduce.Segment{ID: s.ID, Records: s.Records}
			cols[i] = &mapreduce.Segment{ID: s.ID, Records: s.Records, Columns: data.ToColumnar(s.Records, plan)}
		}
		seq, err := spec.Sequential(rows)
		if err != nil {
			return nil, fmt.Errorf("columnar %s sequential: %w", id, err)
		}
		conf := mapreduce.Config{NumReducers: 2}
		run := func(segs []*mapreduce.Segment) (*queries.Run, error) {
			runtime.GC()
			r, err := spec.SympleOpts(segs, conf, core.SympleOptions{MemoSize: memoSize})
			if err != nil {
				return nil, err
			}
			if r.Digest != seq.Digest || r.NumResults != seq.NumResults {
				return nil, fmt.Errorf("digest %x (%d results) != sequential %x (%d)",
					r.Digest, r.NumResults, seq.Digest, seq.NumResults)
			}
			if r.Sym.ExecWall <= 0 || r.Sym.Records == 0 || r.Metrics.MapCPU <= 0 {
				return nil, fmt.Errorf("no map accounting (records %d, exec %v, map %v)",
					r.Sym.Records, r.Sym.ExecWall, r.Metrics.MapCPU)
			}
			return r, nil
		}
		columnarize := func() time.Duration {
			runtime.GC()
			t0 := time.Now()
			for _, s := range rows {
				data.ToColumnar(s.Records, plan)
			}
			return time.Since(t0)
		}
		// Warm up pools and caches so neither side is charged for them.
		for _, segs := range [][]*mapreduce.Segment{rows, cols} {
			if _, err := run(segs); err != nil {
				return nil, fmt.Errorf("columnar %s warmup: %w", id, err)
			}
		}

		q := colQuery{Query: id}
		execRate := func(r *queries.Run) float64 {
			return float64(r.Sym.Records) / r.Sym.ExecWall.Seconds()
		}
		var rowMS, colMS, convMS, ratios []float64
		for round := 0; round < colRounds; round++ {
			// Alternate which side goes first so the first run's debris
			// (GC debt, cache eviction) doesn't always land on one side.
			var r, c *queries.Run
			var err error
			if round%2 == 0 {
				if r, err = run(rows); err == nil {
					c, err = run(cols)
				}
			} else {
				if c, err = run(cols); err == nil {
					r, err = run(rows)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("columnar %s round %d: %w", id, round, err)
			}
			if r.Sym.Records != c.Sym.Records {
				return nil, fmt.Errorf("columnar %s: rows fed %d events, cols %d",
					id, r.Sym.Records, c.Sym.Records)
			}
			rm, cm := ms(r.Metrics.MapCPU), ms(c.Metrics.MapCPU)
			rowMS, colMS = append(rowMS, rm), append(colMS, cm)
			ratios = append(ratios, rm/cm)
			convMS = append(convMS, ms(columnarize()))
			q.RowsExecRecordsPerSec = math.Max(q.RowsExecRecordsPerSec, execRate(r))
			q.ColsExecRecordsPerSec = math.Max(q.ColsExecRecordsPerSec, execRate(c))
			q.RunProbes = c.Sym.RunProbes
			q.Records = c.Sym.Records
		}
		q.RowsMapMS, q.ColsMapMS = median(rowMS), median(colMS)
		q.Speedup = median(ratios)
		q.ColumnarizeMS = median(convMS)
		breakEven := "-"
		if saved := q.RowsMapMS - q.ColsMapMS; saved > 0 {
			runs := q.ColumnarizeMS / saved
			q.BreakEvenRuns = &runs
			breakEven = fmt.Sprintf("%.1f", runs)
		}
		rep.Queries = append(rep.Queries, q)
		t.Rows = append(t.Rows, []string{
			id,
			fmt.Sprintf("%.1f", q.RowsMapMS),
			fmt.Sprintf("%.1f", q.ColsMapMS),
			fmtFactor(q.Speedup),
			fmt.Sprintf("%.1f", q.ColumnarizeMS),
			breakEven,
			fmt.Sprintf("%.0f", q.RowsExecRecordsPerSec),
			fmt.Sprintf("%.0f", q.ColsExecRecordsPerSec),
			fmt.Sprintf("%d", q.RunProbes),
		})
	}

	f, err := os.Create("BENCH_COLUMNAR.json")
	if err != nil {
		return nil, fmt.Errorf("columnar: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return nil, fmt.Errorf("columnar: %w", err)
	}
	return t, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle element of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

type colQuery struct {
	Query string `json:"query"`
	// RowsMapMS / ColsMapMS are the median summed map task times on
	// row-only and column-carrying segments.
	RowsMapMS float64 `json:"rows_map_ms"`
	ColsMapMS float64 `json:"cols_map_ms"`
	// Speedup is the median of per-round paired map-time ratios
	// (rows / cols).
	Speedup float64 `json:"map_speedup_with_columns"`
	// ColumnarizeMS is the median time to convert the whole corpus to
	// the column form; BreakEvenRuns is how many runs its map-time
	// saving takes to repay it (absent when columns save nothing).
	ColumnarizeMS float64  `json:"columnarize_ms"`
	BreakEvenRuns *float64 `json:"break_even_runs,omitempty"`
	// Exec-pass throughput, best of the rounds, per side: the pass is
	// the same code on both, so these should agree within noise.
	RowsExecRecordsPerSec float64 `json:"rows_exec_records_per_sec"`
	ColsExecRecordsPerSec float64 `json:"cols_exec_records_per_sec"`
	// RunProbes counts event runs folded through a single transition
	// probe in one run; Records is the symbolic events executed.
	RunProbes int `json:"run_probes"`
	Records   int `json:"records"`
}

type colReport struct {
	Rounds   int        `json:"rounds"`
	MemoSize int        `json:"memo_size"`
	MaxProcs int        `json:"gomaxprocs"`
	Queries  []colQuery `json:"queries"`
}
