package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// composeSpanCap bounds per-group reduce spans per job (and per w2w
// owner reduce attempt). Group counts track key cardinality, which for
// queries like G1 or B3 approaches record cardinality — a span per group
// there costs more than the reduce work it describes and alone pushes
// tracing past the ≤3% overhead budget. The first composeSpanCap groups
// get individual spans (enough to cover every group of the paper's
// low-cardinality regimes: B1=1, B2=50, R1=100); the rest fold into one
// overflow span whose attrs are the sums. The verifier's compose-count
// invariant survives the aggregation exactly: composes + applies ==
// summaries is additive across groups.
const composeSpanCap = 128

// groupSpans caps per-group reduce-span cardinality for one job or one
// owner reduce attempt. Every span it emits has kind: obs.KindCompose
// for the coordinator-side reducers, obs.KindReduceGroup for the w2w
// owner fold. Groups past the cap cost four atomic adds and no clock
// reads.
type groupSpans struct {
	kind          string
	admitted      atomic.Int64
	groups        atomic.Int64
	summaries     atomic.Int64
	composes      atomic.Int64
	applies       atomic.Int64
	overflowStart atomic.Int64 // unix nanos of the first overflow group
}

// admit reports whether this group gets its own span. The first group
// past the cap stamps the overflow span's start time.
func (a *groupSpans) admit() bool {
	if a.admitted.Add(1) <= composeSpanCap {
		return true
	}
	if a.overflowStart.Load() == 0 {
		a.overflowStart.CompareAndSwap(0, time.Now().UnixNano())
	}
	return false
}

// addOverflow folds one past-cap group into the aggregate.
func (a *groupSpans) addOverflow(summaries, composes, applies int64) {
	a.groups.Add(1)
	a.summaries.Add(summaries)
	a.composes.Add(composes)
	a.applies.Add(applies)
}

// flush emits the overflow aggregate (when any group ran past the cap).
// Called once after the job (or attempt) completes: the span is
// parented to the job via Trace.CurrentJob (which outlives the job
// span's End) and closed at flush time, within the verifier's
// containment slack of the job end.
func (a *groupSpans) flush(trace *obs.Trace) {
	g := a.groups.Load()
	if g == 0 {
		return
	}
	end := time.Now().UnixNano()
	start := a.overflowStart.Load()
	if start == 0 || start > end {
		start = end
	}
	trace.EmitRaw(&obs.Span{
		Parent: trace.CurrentJob(),
		Kind:   a.kind,
		Name:   fmt.Sprintf("overflow+%d-groups", g),
		Start:  start,
		End:    end,
		Attrs: map[string]int64{
			obs.AttrGroups:    g,
			obs.AttrSummaries: a.summaries.Load(),
			obs.AttrComposes:  a.composes.Load(),
			obs.AttrApplies:   a.applies.Load(),
		},
	})
	a.groups.Store(0)
}

// emit emits one under-cap per-group span named by the group key.
func (a *groupSpans) emit(trace *obs.Trace, key string, start, end time.Time, summaries, composes, applies int64) {
	trace.EmitRaw(&obs.Span{
		Parent: trace.CurrentJob(),
		Kind:   a.kind,
		Name:   key,
		Start:  start.UnixNano(),
		End:    end.UnixNano(),
		Attrs: map[string]int64{
			obs.AttrSummaries: summaries,
			obs.AttrComposes:  composes,
			obs.AttrApplies:   applies,
		},
	})
}
