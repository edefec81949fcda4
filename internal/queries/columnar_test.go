package queries

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// columnarDatasets is smallDatasets with the columnar form attached to
// every segment — the corpora the golden digests pin, now carrying
// columns the mapper groups through.
func columnarDatasets(segments int) map[string][]*mapreduce.Segment {
	datasets := smallDatasets(segments)
	for name, segs := range datasets {
		data.Columnarize(segs, data.ColSpecFor(name))
	}
	return datasets
}

// TestGoldenDigestsColumnar runs every query through the SYMPLE engine
// over every segment form its mapper accepts — vectorized GroupBy over
// segment columns, or scalar grouping over rows, then batched symbolic
// execution with run-length memo probes — and checks the output against
// the committed reference digests. The input form must be invisible to
// query semantics, so there is no -update escape hatch: a divergence
// here is a batch-execution bug, not a query change. Four variants per
// query:
//
//   - columns attached directly by the generator-side converter;
//   - columns round-tripped through the columnar segment codec
//     (EncodeColumnar/DecodeColumnar, both raw and flate) — the form a
//     cluster assignment ships;
//   - no columns at all, exercising the per-chunk scalarBatch fallback
//     every column-less segment takes.
//
// Each run is traced and must pass every obs.Verifier invariant —
// including the batch-records parse/exec consistency check — so the
// golden runs double as end-to-end observability checks on the batch
// path.
func TestGoldenDigestsColumnar(t *testing.T) {
	datasets := columnarDatasets(goldenSegments)
	want := readGoldenFile(t)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			w, ok := want[spec.ID]
			if !ok {
				t.Fatalf("missing from golden file (regenerate with -update)")
			}
			segs := datasets[spec.Dataset]
			variants := []struct {
				name string
				segs []*mapreduce.Segment
			}{
				{"columns", segs},
				{"shipped-raw", reshipColumns(t, segs, false)},
				{"shipped-flate", reshipColumns(t, segs, true)},
				{"fallback", stripColumns(segs)},
			}
			for _, v := range variants {
				sink := obs.NewMemSink()
				reg := obs.NewRegistry()
				run, err := spec.Symple(v.segs, mapreduce.Config{
					NumReducers: 3, Trace: obs.NewTrace(sink), Registry: reg})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if run.Digest != w.digest || run.NumResults != w.results {
					t.Errorf("%s: digest %016x (%d results), golden %016x (%d) — batch path changed query output",
						v.name, run.Digest, run.NumResults, w.digest, w.results)
				}
				if err := (obs.Verifier{}).Check(sink.Spans()); err != nil {
					t.Errorf("%s: trace failed verification: %v", v.name, err)
				}
				if err := reg.SelfCheck(); err != nil {
					t.Errorf("%s: registry self-check: %v", v.name, err)
				}
			}
		})
	}
}

// reshipColumns round-trips every segment's columns through the
// columnar segment codec — the bytes a multi-node shuffle would put on
// the wire — and returns fresh segments carrying the decoded columns
// over the same record slices.
func reshipColumns(t *testing.T, segs []*mapreduce.Segment, compress bool) []*mapreduce.Segment {
	t.Helper()
	out := make([]*mapreduce.Segment, len(segs))
	for i, seg := range segs {
		if seg.Columns == nil {
			t.Fatalf("segment %d has no columns to ship", seg.ID)
		}
		cols, err := mapreduce.DecodeColumnar(mapreduce.EncodeColumnar(seg.Columns, compress))
		if err != nil {
			t.Fatalf("segment %d: columnar codec round trip (compress=%v): %v", seg.ID, compress, err)
		}
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: seg.Records, Columns: cols}
	}
	return out
}

// stripColumns returns the same segments without their columnar form.
func stripColumns(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := make([]*mapreduce.Segment, len(segs))
	for i, seg := range segs {
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: seg.Records}
	}
	return out
}

// TestColumnarBatchBoundaries is the metamorphic batch-boundary check:
// summaries compose associatively, so any placement of the batch
// boundary — segment cuts, intra-mapper chunk splits, or none at all —
// must reproduce the sequential digest exactly. Sweeps segment counts
// crossed with map parallelism over column-carrying segments for every
// query.
func TestColumnarBatchBoundaries(t *testing.T) {
	for _, segments := range []int{1, 4, 9} {
		datasets := columnarDatasets(segments)
		for _, spec := range All() {
			spec := spec
			segs := datasets[spec.Dataset]
			want, err := spec.Sequential(segs)
			if err != nil {
				t.Fatalf("%s: sequential: %v", spec.ID, err)
			}
			for _, par := range []int{1, 3} {
				got, err := spec.SympleOpts(segs, mapreduce.Config{NumReducers: 2},
					core.SympleOptions{MapParallelism: par})
				if err != nil {
					t.Fatalf("%s segments=%d par=%d: %v", spec.ID, segments, par, err)
				}
				if got.Digest != want.Digest || got.NumResults != want.NumResults {
					t.Errorf("%s segments=%d par=%d: digest %016x (%d results) != sequential %016x (%d)",
						spec.ID, segments, par, got.Digest, got.NumResults, want.Digest, want.NumResults)
				}
			}
		}
	}
}

// TestColumnarMatchesScalarStats pins the mapper's work accounting on
// one query per symbolic regime across the two grouping steps: the same
// segments with columns attached (GroupByBatch) and stripped
// (scalarBatch) must execute identical records and produce identical
// digests — the input form moves work between grouping paths, it must
// never change what executes — and run probes must occur where event
// columns actually repeat, whichever way the rows were grouped.
func TestColumnarMatchesScalarStats(t *testing.T) {
	datasets := columnarDatasets(goldenSegments)
	for _, id := range []string{"G1", "B2", "R1"} {
		spec := ByID(id)
		segs := datasets[spec.Dataset]
		cols, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s columns: %v", id, err)
		}
		rows, err := spec.Symple(stripColumns(segs), mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s rows: %v", id, err)
		}
		if cols.Sym.Records != rows.Sym.Records {
			t.Errorf("%s: columns executed %d records, rows %d", id, cols.Sym.Records, rows.Sym.Records)
		}
		if id == "R1" && (cols.Sym.RunProbes == 0 || rows.Sym.RunProbes == 0) {
			t.Errorf("%s: run probes columns %d, rows %d — unit events must form runs",
				id, cols.Sym.RunProbes, rows.Sym.RunProbes)
		}
		if cols.Digest != rows.Digest {
			t.Errorf("%s: digests diverge: columns %016x rows %016x", id, cols.Digest, rows.Digest)
		}
	}
}
