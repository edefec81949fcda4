package queries

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mapreduce"
)

// TestSympleOptsEquivalence pins the fast symbolic runtime to the
// sequential reference across every knob combination the symexec work
// introduced: memoization on/off, intra-mapper parallelism, the frozen
// seed executor, and their interactions with the combiner and the tree
// reducer. Every configuration must produce the sequential digest on
// all 12 queries.
func TestSympleOptsEquivalence(t *testing.T) {
	configs := []struct {
		name string
		opt  core.SympleOptions
	}{
		{"memo", core.SympleOptions{}},
		{"nomemo", core.SympleOptions{MemoSize: -1}},
		{"tinymemo", core.SympleOptions{MemoSize: 2}}, // constant eviction
		{"parallel3", core.SympleOptions{MapParallelism: 3}},
		{"parallel8", core.SympleOptions{MapParallelism: 8}},
		{"seed", core.SympleOptions{SeedExecutor: true}},
		{"seed-parallel", core.SympleOptions{SeedExecutor: true, MapParallelism: 3}},
		{"combine-parallel", core.SympleOptions{Combine: true, MapParallelism: 3}},
		{"tree-memo-parallel", core.SympleOptions{Tree: true, MapParallelism: 3}},
	}
	for _, segments := range []int{1, 4} {
		datasets := smallDatasets(segments)
		for _, spec := range All() {
			spec := spec
			segs := datasets[spec.Dataset]
			seq, err := spec.Sequential(segs)
			if err != nil {
				t.Fatalf("%s: sequential: %v", spec.ID, err)
			}
			t.Run(spec.ID, func(t *testing.T) {
				for _, cfg := range configs {
					got, err := spec.SympleOpts(segs, mapreduce.Config{NumReducers: 3}, cfg.opt)
					if err != nil {
						t.Fatalf("segments=%d %s: %v", segments, cfg.name, err)
					}
					if got.Digest != seq.Digest || got.NumResults != seq.NumResults {
						t.Errorf("segments=%d %s: digest %x (%d results) != sequential %x (%d)",
							segments, cfg.name, got.Digest, got.NumResults, seq.Digest, seq.NumResults)
					}
				}
			})
		}
	}
}

// TestSympleOptsMemoStats sanity-checks the surfaced counters: a
// skewed-key query must report real memo traffic, and a disabled memo
// must report none. R1 is the probe: the batch executor finishes
// all-identity keys and folds event runs without consulting the memo,
// which absorbs G1's would-be hits, while R1's per-advertiser vectors
// still miss and hit the memo between runs.
func TestSympleOptsMemoStats(t *testing.T) {
	segs := smallDatasets(4)["redshift"]
	on, err := ByID("R1").SympleOpts(segs, mapreduce.Config{NumReducers: 3}, core.SympleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Sym.MemoHits == 0 {
		t.Fatalf("R1 with memo reported no hits: %+v", on.Sym)
	}
	off, err := ByID("R1").SympleOpts(segs, mapreduce.Config{NumReducers: 3}, core.SympleOptions{MemoSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Sym.MemoHits != 0 || off.Sym.MemoMisses != 0 {
		t.Fatalf("disabled memo reported traffic: %+v", off.Sym)
	}
}
