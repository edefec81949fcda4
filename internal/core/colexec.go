package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// Batch is the vectorized GroupBy output for one chunk of rows: the
// kept rows' events plus, per event, the index of its group key. Keys
// are interned in first-use order — the order a per-record GroupBy loop
// discovers groups in — so GroupByBatch and scalarBatch produce the same
// Batch and the mapper emits bundles in the same order either way.
type Batch[E any] struct {
	// Keys lists the distinct group keys in first-use order.
	Keys []string
	// KeyIdx holds, per kept row, the index of its key in Keys.
	KeyIdx []int32
	// Rows holds, per kept row, its segment-global row index (ascending).
	Rows []int32
	// Events holds the kept rows' events, in row order.
	Events []E
}

// Reset empties the batch, retaining capacity.
func (b *Batch[E]) Reset() {
	b.Keys = b.Keys[:0]
	b.KeyIdx = b.KeyIdx[:0]
	b.Rows = b.Rows[:0]
	b.Events = b.Events[:0]
}

// scalarBatch is the fallback vectorizer: the scalar GroupBy applied
// per record with map-based key interning. It is what makes GroupByBatch
// and Segment.Columns optional — every query runs on the one batch
// executor whether or not it, or its input, understands columns.
func scalarBatch[S sym.State, E, R any](q *Query[S, E, R], records [][]byte, lo, hi int, b *Batch[E]) {
	b.Reset()
	idx := make(map[string]int32, 64)
	for i := lo; i < hi; i++ {
		key, ev, ok := q.GroupBy(records[i])
		if !ok {
			continue
		}
		ki, seen := idx[key]
		if !seen {
			ki = int32(len(b.Keys))
			b.Keys = append(b.Keys, key)
			idx[key] = ki
		}
		b.KeyIdx = append(b.KeyIdx, ki)
		b.Rows = append(b.Rows, int32(i))
		b.Events = append(b.Events, ev)
	}
}

// batchExec bundles the executor and memo one chunk runs with. Pooled per engine run (the sympleMapFunc closure) so the
// memo — whose cached transitions depend only on the schema and update
// function, never on the chunk — persists across chunks instead of
// being allocated, rebuilt, and torn down once per chunk, and the
// executor's identity caches, power ladder, and summary block cache
// stay warm. used marks an executor that has fed keys since its last
// Reset and so needs one before its next FeedBatch.
type batchExec[S sym.State, E any] struct {
	fast *sym.Executor[S, E]
	memo *sym.Memo[S, E]
	used bool
}

// batchExecPool hands batch executors to concurrently running chunks
// of one engine run. Zero value is ready; an empty pool means the
// chunk builds a fresh batchExec and parks it here when done.
type batchExecPool[S sym.State, E any] struct {
	mu   sync.Mutex
	free []*batchExec[S, E]
}

func (bp *batchExecPool[S, E]) get() *batchExec[S, E] {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if n := len(bp.free); n > 0 {
		be := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		return be
	}
	return nil
}

func (bp *batchExecPool[S, E]) put(be *batchExec[S, E]) {
	bp.mu.Lock()
	bp.free = append(bp.free, be)
	bp.mu.Unlock()
}

// symExecChunkBatch is the SYMPLE chunk executor: it runs the symbolic
// per-key UDA loop over rows [lo, hi) of a segment. Row indices are
// segment-global, so lastRec carries segment-global record indices and
// the §5.4 (key, mapperID, recordID) order survives sub-chunking.
//
// The chunk runs in two passes. Pass one groups: it fills a Batch —
// through the query's GroupByBatch over the segment's columns when the
// segment carries them, else through scalarBatch — and counting-sorts
// the key-index vector into per-key contiguous event vectors. Pass two
// executes: it feeds each key's vector to the executor's batch API
// (FeedBatch), which folds runs of identical events through single
// transition probes and executes quiet stretches in place. Where the
// input is cut into batches cannot change the result, because summary
// composition is associative and exact (§3.6). Keeping grouping out of
// the symbolic hot loop also lets pass two be timed on its own
// (stats.ExecWall), so engine throughput can be compared net of the
// parse cost every engine shares.
func symExecChunkBatch[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], opt SympleOptions, pool *batchExecPool[S, E], seg *mapreduce.Segment, lo, hi int, trace *obs.Trace, mapperID, chunk int) chunkResult[S] {
	out := chunkResult[S]{}
	parseSpan := trace.Start(obs.KindMapParse, fmt.Sprintf("parse-%d.%d", mapperID, chunk)).
		Attr(obs.AttrTask, int64(mapperID)).Attr(obs.AttrChunk, int64(chunk)).
		Attr(obs.AttrRecords, int64(hi-lo))
	var b Batch[E]
	if seg.Columns == nil || q.GroupByBatch == nil || !q.GroupByBatch(seg.Columns, lo, hi, &b) {
		// A false return means the columns don't match the shape the
		// query compiled against (different plan, foreign dataset); the
		// batch content is then unspecified and rebuilt scalar.
		scalarBatch(q, seg.Records, lo, hi, &b)
	}
	out.order = b.Keys
	parseSpan.Attr(obs.AttrGroups, int64(len(b.Keys))).
		Attr(obs.AttrBatchRecords, int64(len(b.Events))).End()

	// Counting sort over the key-index vector: per-key contiguous event
	// runs without per-record map lookups or per-key slice growth.
	nk := len(b.Keys)
	offs := make([]int32, nk+1)
	for _, ki := range b.KeyIdx {
		offs[ki+1]++
	}
	for i := 1; i <= nk; i++ {
		offs[i] += offs[i-1]
	}
	events := make([]E, len(b.Events))
	last := make([]int64, nk)
	cur := make([]int32, nk)
	copy(cur, offs[:nk])
	for r, ki := range b.KeyIdx {
		events[cur[ki]] = b.Events[r]
		cur[ki]++
		last[ki] = int64(b.Rows[r]) // rows ascend, so the final write is the max
	}

	// lastRec falls straight out of the counting sort (rows ascend, so
	// the final write per key was the max); the summary arena and its
	// offsets are sized here so the timed pass below only appends.
	out.lastRec = last
	out.sums = make([]*sym.Summary[S], 0, nk)
	out.sumOff = make([]int32, 1, nk+1)

	start := time.Now()
	execSpan := trace.Start(obs.KindMapExec, fmt.Sprintf("exec-%d.%d", mapperID, chunk)).
		Attr(obs.AttrTask, int64(mapperID)).Attr(obs.AttrChunk, int64(chunk)).
		Attr(obs.AttrGroups, int64(len(b.Keys))).
		Attr(obs.AttrBatchRecords, int64(len(b.Events)))
	var be *batchExec[S, E]
	var fast *sym.Executor[S, E]
	var prev sym.Stats
	if !opt.SeedExecutor {
		if be = pool.get(); be == nil {
			var memo *sym.Memo[S, E]
			if opt.MemoSize >= 0 {
				memo = sym.NewMemo[S, E](sc, opt.MemoSize)
			}
			be = &batchExec[S, E]{
				fast: sym.NewSchemaExecutor(sc, q.Update, q.Options).WithMemo(memo),
				memo: memo,
			}
		}
		fast = be.fast
		prev = fast.Stats()
	}
	// needReset tracks whether the executor has run a key since its last
	// reset; the all-identity fast finish below bypasses the executor's
	// paths entirely and so neither needs nor forces one. A pooled
	// executor arrives with the previous chunk's last key still live.
	needReset := be != nil && be.used
	for ki, key := range b.Keys {
		evs := events[offs[ki]:offs[ki+1]]
		var err error
		if opt.SeedExecutor {
			// The frozen seed engine predates the batch API; feed it
			// record-at-a-time.
			x := sym.NewSeedExecutor(q.NewState, q.Update, q.Options)
			for _, ev := range evs {
				if err = x.Feed(ev); err != nil {
					break
				}
			}
			var sums []*sym.Summary[S]
			if err == nil {
				sums, err = x.Finish()
			}
			if err == nil {
				out.sums = append(out.sums, sums...)
				addStats(&out.stats, x.Stats(), sym.Stats{})
			}
		} else {
			var done bool
			if out.sums, done = fast.TryFinishIdentity(evs, out.sums); !done {
				if needReset {
					fast.Reset()
				}
				needReset = true
				if err = fast.FeedBatch(evs); err == nil {
					out.sums, err = fast.FinishInto(out.sums)
				}
			}
		}
		if err != nil {
			// Don't repool: an errored executor's path state is
			// unspecified, and the whole run is aborting anyway.
			out.err = fmt.Errorf("key %q: %w", key, err)
			execSpan.Tag("outcome", "error").End()
			if be != nil && be.memo != nil {
				be.memo.Release()
			}
			return out
		}
		out.sumOff = append(out.sumOff, int32(len(out.sums)))
	}
	if fast != nil {
		addStats(&out.stats, fast.Stats(), prev)
	}
	out.stats.ExecWall = time.Since(start)
	execSpan.End()
	if be != nil {
		be.used = needReset
		pool.put(be)
	}
	return out
}
