package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
	"repro/internal/wire"
)

// chunkResult is one sub-chunk's symbolic output: per-key ordered
// summary lists plus the work counters, produced by symExecChunkBatch. The
// per-key data is order-aligned slices, not maps — the executors emit
// keys in a known order, so the timed execution pass appends instead of
// hashing, and the stitcher walks the arena by offset.
type chunkResult[S sym.State] struct {
	order []string
	// sums holds every key's summaries back to back; key i's summaries
	// are sums[sumOff[i]:sumOff[i+1]] (sumOff has len(order)+1 entries).
	sums   []*sym.Summary[S]
	sumOff []int32
	// lastRec holds, per key in order, the segment-global index of the
	// key's last record.
	lastRec []int64
	stats   SymStats
	err     error
}

// keySums returns key i's summary list (a sub-slice of the arena).
func (c *chunkResult[S]) keySums(i int) []*sym.Summary[S] {
	return c.sums[c.sumOff[i]:c.sumOff[i+1]]
}

// addStats folds the growth of one executor's counters between two
// snapshots into the chunk totals — a pooled executor accumulates
// across chunks, so a chunk owns only its delta (prev is zero for a
// fresh executor).
func addStats(dst *SymStats, cur, prev sym.Stats) {
	dst.Records += cur.Records - prev.Records
	dst.Runs += cur.Runs - prev.Runs
	dst.Merges += cur.Merges - prev.Merges
	dst.Restarts += cur.Restarts - prev.Restarts
	dst.MemoHits += cur.MemoHits - prev.MemoHits
	dst.MemoMisses += cur.MemoMisses - prev.MemoMisses
	dst.RunProbes += cur.RunProbes - prev.RunProbes
}

// add folds o's counters into s.
func (s *SymStats) add(o SymStats) {
	s.Records += o.Records
	s.Runs += o.Runs
	s.Merges += o.Merges
	s.Restarts += o.Restarts
	s.Summaries += o.Summaries
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.RunProbes += o.RunProbes
	s.ExecWall += o.ExecWall
}

// splitChunks cuts n records into at most p contiguous chunks of
// near-equal size, returning the start offsets (ascending, first 0).
func splitChunks(n, p int) []int {
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	starts := make([]int, 0, p)
	for i := 0; i < p; i++ {
		starts = append(starts, i*n/p)
	}
	return starts
}

// sympleMapFunc is the shared SYMPLE mapper: groupby plus symbolic UDA
// execution per group, emitting one summary bundle per group. With
// opt.MapParallelism > 1 the segment is cut into contiguous sub-chunks
// executed on their own goroutines and stitched back per key in chunk
// order, so a single large segment no longer serializes one core. With
// opt.Combine it acts as its own combiner, pre-composing each group's
// summary list into one summary before the shuffle (falling back to the
// uncombined list when composition fails).
func sympleMapFunc[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], mu *sync.Mutex, stats *SymStats, opt SympleOptions, trace *obs.Trace, reg *obs.Registry) mapreduce.MapFunc {
	// One executor/memo pool for the whole engine run: memoized
	// transitions depend only on the schema and update function, so the
	// memo built by early chunks answers probes for every later chunk,
	// and reused executors keep identity caches and summary blocks warm.
	pool := &batchExecPool[S, E]{}
	return func(mapperID int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
		p := opt.MapParallelism
		if p < 1 {
			p = 1
		}
		starts := splitChunks(len(seg.Records), p)
		outs := make([]chunkResult[S], len(starts))
		runChunk := func(ci, start, end int) chunkResult[S] {
			return symExecChunkBatch(q, sc, opt, pool, seg, start, end, trace, mapperID, ci)
		}
		if len(starts) == 1 {
			outs[0] = runChunk(0, 0, len(seg.Records))
		} else {
			var wg sync.WaitGroup
			for ci, start := range starts {
				end := len(seg.Records)
				if ci+1 < len(starts) {
					end = starts[ci+1]
				}
				wg.Add(1)
				go func(ci, start, end int) {
					defer wg.Done()
					outs[ci] = runChunk(ci, start, end)
				}(ci, start, end)
			}
			wg.Wait()
		}
		local := SymStats{}
		for ci := range outs {
			if err := outs[ci].err; err != nil {
				return err
			}
			local.add(outs[ci].stats)
		}

		// Stitch: per key, concatenate the chunks' ordered summary lists
		// in chunk order — record order within the key, so composing the
		// bundle left-to-right reproduces the sequential semantics.
		var order []string
		keySums := make(map[string][]*sym.Summary[S])
		keyLast := make(map[string]int64)
		for ci := range outs {
			o := &outs[ci]
			for i, key := range o.order {
				if _, seen := keySums[key]; !seen {
					order = append(order, key)
				}
				keySums[key] = append(keySums[key], o.keySums(i)...)
				keyLast[key] = o.lastRec[i] // ascending ci → final value is the max
			}
		}

		// Observe into a task-local registry and merge once at task end:
		// the job registry's histogram mutex would otherwise be hammered
		// once per bundle by every mapper in parallel.
		var lreg *obs.Registry
		var sumBytes *obs.Histogram
		if reg != nil {
			lreg = obs.NewRegistry()
			sumBytes = lreg.Histogram(MetricSummaryBytes)
		}
		for _, key := range order {
			sums := keySums[key]
			if opt.Combine && len(sums) > 1 {
				// The combine span is emitted only when composition
				// succeeds: a fallback to the uncombined list did no
				// combining, and a half-open span is never flushed.
				span := trace.Start(obs.KindCombine, fmt.Sprintf("combine-%d/%s", mapperID, key)).
					Attr(obs.AttrTask, int64(mapperID))
				if composed, n, cerr := sym.ComposeAllCounted(sums); cerr == nil {
					span.Attr(obs.AttrSummaries, int64(len(sums))).
						Attr(obs.AttrComposes, int64(n)).End()
					for _, s := range sums {
						s.Release()
					}
					sums = []*sym.Summary[S]{composed}
				}
			}
			e := wire.GetEncoder()
			e.Uvarint(uint64(len(sums)))
			for _, s := range sums {
				s.Encode(e)
			}
			// The shuffle retains emitted values, so hand it an
			// exact-size copy and recycle the encoder buffer.
			buf := make([]byte, e.Len())
			copy(buf, e.Bytes())
			wire.PutEncoder(e)
			sumBytes.Observe(int64(len(buf)))
			emit(key, keyLast[key], buf)
			for _, s := range sums {
				s.Release()
			}
			local.Summaries += len(sums)
		}
		if reg != nil {
			lreg.Counter(MetricMemoHits).Add(int64(local.MemoHits))
			lreg.Counter(MetricMemoMisses).Add(int64(local.MemoMisses))
			if local.RunProbes > 0 {
				lreg.Counter(MetricMemoRunProbes).Add(int64(local.RunProbes))
			}
			lreg.MergeInto(reg)
		}
		mu.Lock()
		stats.add(local)
		mu.Unlock()
		return nil
	}
}

// treeReduceFunc composes a group's summaries as a parallel binary tree
// and applies the single result to the initial state.
func treeReduceFunc[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], mu *sync.Mutex, results map[string]R, trace *obs.Trace, agg *groupSpans) mapreduce.ReduceFunc {
	return func(_ int, key string, values []mapreduce.Shuffled) error {
		sums, err := decodeSummaryBundles(sc, nil, values)
		if err != nil {
			return err
		}
		if len(sums) == 0 {
			return fmt.Errorf("key %q: no summaries to compose", key)
		}
		// n summaries tree-compose with exactly n-1 pairwise compositions
		// and a single apply — the count the span carries is measured by
		// ComposeAllParallelCounted, not assumed, so the verifier's
		// compose-count invariant checks the tree actually did its job.
		var t0 time.Time
		timed := false
		if trace != nil {
			if timed = agg.admit(); timed {
				t0 = time.Now()
			}
		}
		composed, n, err := sym.ComposeAllParallelCounted(sums)
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		final, err := composed.Apply(q.NewState())
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		composed.Release()
		r := q.Result(key, final)
		if timed {
			agg.emit(trace, key, t0, time.Now(), int64(len(sums)), int64(n), 1)
		} else if trace != nil {
			agg.addOverflow(int64(len(sums)), int64(n), 1)
		}
		mu.Lock()
		results[key] = r
		mu.Unlock()
		return nil
	}
}

// The pairwise tree reduction itself lives in the sym package
// (sym.ComposeAllParallel), where StreamComposer and the combiner share
// it; this file only wires it into the reducer.
