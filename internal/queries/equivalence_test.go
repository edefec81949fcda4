package queries

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
)

// randomChunking re-segments a corpus at random cut points, preserving
// global record order. Engine equivalence must hold for any chunking —
// summaries compose across arbitrary chunk boundaries (§3.6/§5.4).
func randomChunking(rng *rand.Rand, segs []*mapreduce.Segment, numSegments int) []*mapreduce.Segment {
	var records [][]byte
	for _, s := range segs {
		records = append(records, s.Records...)
	}
	out := make([]*mapreduce.Segment, numSegments)
	for i := range out {
		out[i] = &mapreduce.Segment{ID: i}
	}
	cuts := make([]int, 0, numSegments)
	for i := 0; i < numSegments-1; i++ {
		cuts = append(cuts, rng.Intn(len(records)+1))
	}
	cuts = append(cuts, len(records))
	sort.Ints(cuts)
	lo := 0
	for seg, hi := range cuts {
		out[seg].Records = records[lo:hi]
		lo = hi
	}
	return out
}

// TestEquivalenceAllEnginesAllQueries is the streaming-shuffle
// determinism/equivalence gate: for every one of the paper's 12
// evaluation queries, on randomized chunkings, every engine —
// Sequential, Baseline, Symple, Symple with the tree reducer, and Symple
// with the mapper-side combiner — produces identical results, and the streaming
// engine matches the retained barrier engine exactly.
func TestEquivalenceAllEnginesAllQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := smallDatasets(4)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			for round := 0; round < 2; round++ {
				numSegs := 1 + rng.Intn(6)
				segs := randomChunking(rng, base[spec.Dataset], numSegs)
				seq, err := spec.Sequential(segs)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				conf := mapreduce.Config{NumReducers: 1 + rng.Intn(4)}
				barrier := conf
				barrier.BarrierShuffle = true
				engines := []struct {
					name string
					run  func() (*Run, error)
				}{
					{"baseline", func() (*Run, error) { return spec.Baseline(segs, conf) }},
					{"baseline/barrier", func() (*Run, error) { return spec.Baseline(segs, barrier) }},
					{"symple", func() (*Run, error) { return spec.Symple(segs, conf) }},
					{"symple/barrier", func() (*Run, error) { return spec.Symple(segs, barrier) }},
					{"symple-tree", func() (*Run, error) { return spec.SympleOpts(segs, conf, core.SympleOptions{Tree: true}) }},
					{"symple-combined", func() (*Run, error) { return spec.SympleOpts(segs, conf, core.SympleOptions{Combine: true}) }},
				}
				for _, eng := range engines {
					run, err := eng.run()
					if err != nil {
						t.Fatalf("round %d %s: %v", round, eng.name, err)
					}
					if run.Digest != seq.Digest || run.NumResults != seq.NumResults {
						t.Errorf("round %d (%d segs): %s digest %x (%d results) != sequential %x (%d)",
							round, numSegs, eng.name, run.Digest, run.NumResults, seq.Digest, seq.NumResults)
					}
				}
			}
		})
	}
}

// TestCombinerShrinksSummaryTraffic spot-checks the combiner's purpose
// on a query whose groups span all mappers: it must never increase the
// number of shuffled summaries, and on the single-group B1 it should cut
// multi-summary bundles down.
func TestCombinerShrinksSummaryTraffic(t *testing.T) {
	segs := data.GenBing(data.BingConfig{
		Records: 8000, Users: 400, Geos: 12, Segments: 8,
		Filler: 8, Seed: 12, Outages: 6})
	spec := ByID("B1")
	conf := mapreduce.Config{NumReducers: 1}
	plain, err := spec.Symple(segs, conf)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := spec.SympleOpts(segs, conf, core.SympleOptions{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	if combined.Digest != plain.Digest {
		t.Fatal("combiner changed B1's result")
	}
	if combined.Sym.Summaries > plain.Sym.Summaries {
		t.Errorf("combiner increased shuffled summaries: %d > %d",
			combined.Sym.Summaries, plain.Sym.Summaries)
	}
	if combined.Metrics.ShuffleBytes > plain.Metrics.ShuffleBytes {
		t.Errorf("combiner increased shuffle bytes: %d > %d",
			combined.Metrics.ShuffleBytes, plain.Metrics.ShuffleBytes)
	}
}
