package core

import (
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
	"repro/internal/wire"
)

// FoldGroup is the one reduce of a group's summaries, wherever they are
// reduced: decode the group's ordered summary bundles and apply them
// left to right onto st. Since ApplyAll ≡ Apply∘ComposeAll (§4.2) and a
// concrete state has exactly one path, the fold is a complete reduce
// from any concrete starting state — the initial state in the engine
// reducer and the w2w owner fold, a standing state in the query
// service. st is not mutated.
//
// The decoded summaries are appended to sums[:0] and returned, so the
// caller can reuse the slice and decides their fate: release them to
// sc's pools, or leave them to the GC. On error the returned state is
// st and the returned summaries are the ones decoded so far.
func FoldGroup[S sym.State](sc *sym.Schema[S], st S, rows []mapreduce.Shuffled, sums []*sym.Summary[S]) (S, []*sym.Summary[S], error) {
	sums, err := decodeSummaryBundles(sc, sums[:0], rows)
	if err != nil {
		return st, sums, err
	}
	out, err := sym.ApplyAll(st, sums)
	if err != nil {
		return st, sums, err
	}
	return out, sums, nil
}

// decodeSummaryBundles appends the decoded summaries of one group's
// ordered bundles to dst, drawing containers from sc's pools.
func decodeSummaryBundles[S sym.State](sc *sym.Schema[S], dst []*sym.Summary[S], rows []mapreduce.Shuffled) ([]*sym.Summary[S], error) {
	var err error
	for _, r := range rows {
		if dst, err = sc.DecodeSummaryBundle(dst, r.Value); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// OwnerFold is the reduce-side group combiner of one worker-resident
// reduce attempt (cluster w2w topology). The partition's owner does the
// real reduce work in place: it folds each merged group from the
// query's initial state (FoldGroup) and ships the concrete final state
// back as a single constant summary — legitimate because a concretized
// state admits any input (Concretize clears every field's constraint),
// so the coordinator-side apply over the constant bundle reproduces the
// sequential semantics byte for byte. Shipping the applied state keeps
// the reply small: it has collapsed to the single path the real initial
// state selects.
//
// An OwnerFold is built per attempt and used from one goroutine. It
// emits obs.KindReduceGroup spans under the reducer's cap: at most
// composeSpanCap per-group spans, then one aggregate at Flush.
type OwnerFold[S sym.State, E, R any] struct {
	q     *Query[S, E, R]
	sc    *sym.Schema[S]
	trace *obs.Trace
	spans groupSpans
	sums  []*sym.Summary[S] // decode scratch
}

// SympleCombiner builds the owner fold of one reduce attempt over the
// query's schema sc. trace receives the attempt's reduce_group spans;
// it may be nil.
func SympleCombiner[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], trace *obs.Trace) *OwnerFold[S, E, R] {
	return &OwnerFold[S, E, R]{q: q, sc: sc, trace: trace, spans: groupSpans{kind: obs.KindReduceGroup}}
}

// Combine folds one merged group to a one-row constant-summary bundle.
// It matches cluster.GroupCombiner: rows and their values are only
// valid for the call. When the fold fails the rows pass through
// unchanged, so the coordinator-side reducer sees exactly the
// via-coordinator bytes and surfaces the identical error: correctness
// never depends on the owner fold firing, only reply size does.
func (f *OwnerFold[S, E, R]) Combine(key string, rows []mapreduce.Shuffled) []mapreduce.Shuffled {
	var t0 time.Time
	timed := false
	if f.trace != nil {
		if timed = f.spans.admit(); timed {
			t0 = time.Now()
		}
	}
	final, sums, err := FoldGroup(f.sc, f.q.NewState(), rows, f.sums)
	n := int64(len(sums))
	for _, s := range sums {
		s.Release()
	}
	clear(sums)
	f.sums = sums[:0]
	if err != nil {
		return rows
	}
	e := wire.GetEncoder()
	e.Uvarint(1)
	sym.NewSummary(f.q.NewState, []S{final}).Encode(e)
	buf := make([]byte, e.Len())
	copy(buf, e.Bytes())
	wire.PutEncoder(e)
	if timed {
		f.spans.emit(f.trace, key, t0, time.Now(), n, 0, n)
	} else if f.trace != nil {
		f.spans.addOverflow(n, 0, n)
	}
	// Row identity comes from the group's first row: the classic and
	// tree reducers ignore (MapperID, RecordID), and keeping the minimum
	// preserves the merge order's invariants for any future reader that
	// does look.
	return []mapreduce.Shuffled{{MapperID: rows[0].MapperID, RecordID: rows[0].RecordID, Value: buf}}
}

// Flush ends the attempt: it emits the aggregate span of the groups
// past the per-group span cap.
func (f *OwnerFold[S, E, R]) Flush() {
	if f.trace != nil {
		f.spans.flush(f.trace)
	}
}
