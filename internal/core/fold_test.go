package core

import (
	"math/rand"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// TestOwnerFoldSpansAndResult drives the w2w owner fold over more
// groups than the per-group span cap. Each group must come back as one
// constant-summary row whose fold equals the fold of the input rows;
// the attempt must emit exactly composeSpanCap per-group reduce_group
// spans plus one aggregate whose attrs carry the rest, and no combine
// or compose span (those kinds carry verifier invariants the owner's
// fold would break); a row that does not decode passes through.
func TestOwnerFoldSpansAndResult(t *testing.T) {
	q := maxQuery()
	sc, err := sym.NewSchema(q.NewState)
	if err != nil {
		t.Fatal(err)
	}
	const keys = composeSpanCap + 72
	segs := makeSegments(randMaxInput(rand.New(rand.NewSource(5)), 4000, keys), 3)
	fn, err := SympleMapper(q, sc, SympleOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string][]mapreduce.Shuffled{}
	var order []string
	for _, seg := range segs {
		err := fn(seg.ID, seg, func(key string, rid int64, v []byte) {
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], mapreduce.Shuffled{MapperID: seg.ID, RecordID: rid, Value: v})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != keys {
		t.Fatalf("%d groups, want %d", len(order), keys)
	}

	sink := obs.NewMemSink()
	of := SympleCombiner(q, sc, obs.NewTrace(sink))
	var summaries int64
	for _, key := range order {
		rows := groups[key]
		want, sums, err := FoldGroup(sc, q.NewState(), rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		summaries += int64(len(sums))
		out := of.Combine(key, rows)
		if len(out) != 1 {
			t.Fatalf("group %q: %d rows back, want 1", key, len(out))
		}
		got, _, err := FoldGroup(sc, q.NewState(), out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q.Result(key, got) != q.Result(key, want) {
			t.Errorf("group %q: owner fold %d, direct fold %d", key, q.Result(key, got), q.Result(key, want))
		}
	}
	bad := []mapreduce.Shuffled{{Value: []byte{0xFF}}}
	if out := of.Combine("bad", bad); len(out) != 1 || &out[0] != &bad[0] {
		t.Error("an undecodable group did not pass through unchanged")
	}
	of.Flush()

	var perGroup, overflow int
	var spanSums int64
	for _, sp := range sink.Spans() {
		if sp.Kind != obs.KindReduceGroup {
			t.Errorf("owner fold emitted a %s span %q", sp.Kind, sp.Name)
			continue
		}
		if sp.Attr(obs.AttrComposes) != 0 || sp.Attr(obs.AttrApplies) != sp.Attr(obs.AttrSummaries) {
			t.Errorf("span %q: composes %d applies %d summaries %d, want 0/summaries",
				sp.Name, sp.Attr(obs.AttrComposes), sp.Attr(obs.AttrApplies), sp.Attr(obs.AttrSummaries))
		}
		spanSums += sp.Attr(obs.AttrSummaries)
		if g := sp.Attr(obs.AttrGroups); g > 0 {
			overflow++
			if g != keys-composeSpanCap {
				t.Errorf("aggregate covers %d groups, want %d", g, keys-composeSpanCap)
			}
		} else {
			perGroup++
		}
	}
	if perGroup != composeSpanCap || overflow != 1 {
		t.Errorf("%d per-group + %d aggregate spans, want %d + 1", perGroup, overflow, composeSpanCap)
	}
	if spanSums != summaries {
		t.Errorf("spans account for %d summaries, groups had %d", spanSums, summaries)
	}
}
