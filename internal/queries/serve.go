package queries

import (
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/sym"
)

// The serve side of a binding: the query service maps cold runs
// through the binding's Mapper under default options, so cached bundles
// are the bytes a batch run shuffles, and folds them with the engine
// reducer's FoldGroup; the spec's format func feeds digestResults, so
// the service's digest is Run.Digest for the same data.

// Every binding is a serve.Runner; the service skips bindings that are not.
var _ serve.Runner = (*binding[*r1State, struct{}, int64])(nil)

// SchemaKey names the map-output schema for cache keying. Serve runs
// always map with default SympleOptions, so the query ID is the whole
// key; grow it if serve ever maps under options that change bundles.
func (b *binding[S, E, R]) SchemaKey() string { return "symple/" + b.id }

func (b *binding[S, E, R]) Resume(prev serve.Fold) (serve.Session, error) {
	s := &serveSession[S, E, R]{b: b, states: map[string]S{}}
	if prev != nil {
		f, ok := prev.(*serveFold[S])
		if !ok {
			return nil, fmt.Errorf("query %s: resuming from a foreign fold %T", b.id, prev)
		}
		s.n, s.states = f.n, maps.Clone(f.states)
	}
	return s, nil
}

// serveFold is a standing-fold snapshot: each group's concrete state
// after the first n segments, and the formatted result. The states are
// shared with the sessions resumed from it and the snapshots they
// freeze — Apply never mutates its input, and no state is ever handed
// back to a schema pool — so a snapshot stays valid for as long as
// anyone holds it.
type serveFold[S sym.State] struct {
	n      int
	states map[string]S
	res    serve.Result
}

func (f *serveFold[S]) Segments() int        { return f.n }
func (f *serveFold[S]) Result() serve.Result { return f.res }

// serveSession extends a snapshot: states starts as a copy of the
// snapshot's map (sharing its state values), and folding a segment
// replaces the states of the groups that segment touches. The fold is
// always in dataset order, so each segment's summaries simply apply
// onto the previous state — ApplyAll from the initial state, exactly
// the batch reducer's evaluation, split at segment boundaries.
type serveSession[S sym.State, E, R any] struct {
	b      *binding[S, E, R]
	n      int
	states map[string]S
	row    [1]mapreduce.Shuffled // the one bundle a segment holds per key
	sums   []*sym.Summary[S]     // decode scratch
}

func (s *serveSession[S, E, R]) Fold(bundles *serve.Bundles) error {
	for i := range bundles.Len() {
		key, data := bundles.At(i)
		st, ok := s.states[key]
		if !ok {
			st = s.b.q.NewState()
		}
		// The summaries are left to the GC, not released: a released
		// summary parks in the binding's schema until a mapper reuses it.
		s.row[0].Value = data
		next, sums, err := core.FoldGroup(s.b.sc, st, s.row[:], s.sums)
		clear(sums)
		s.sums = sums[:0]
		if err != nil {
			return fmt.Errorf("segment %d group %q: %w", s.n, key, err)
		}
		s.states[key] = next
	}
	s.n++
	return nil
}

func (s *serveSession[S, E, R]) Freeze() serve.Fold {
	// The queries' Result funcs only read the state (they build fresh
	// output containers), so formatting leaves the shared states intact.
	results := make(map[string]R, len(s.states))
	for key, st := range s.states {
		results[key] = s.b.q.Result(key, st)
	}
	d, n := digestResults(results, s.b.format)
	return &serveFold[S]{n: s.n, states: s.states, res: serve.Result{Digest: d, NumResults: n}}
}
