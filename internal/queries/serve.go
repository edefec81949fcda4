package queries

import (
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sym"
)

// registerServeQuery publishes the query to the serve registry so the
// long-running query service can fold it incrementally. The serve
// runner uses exactly the batch SYMPLE mapper (default options), so
// cached bundles are the bytes a batch run shuffles, and reuses the
// spec's format func through digestResults — the service's digest is
// Run.Digest for the same data.
func registerServeQuery[S sym.State, E, R any](
	id string,
	q *core.Query[S, E, R],
	format func(key string, r R) string,
) {
	sc, err := sym.NewSchema(q.NewState)
	serve.Register(id, &serveRunner[S, E, R]{id: id, q: q, format: format, sc: sc, scErr: err})
}

// serveRunner folds one query. One schema serves all its jobs' cold
// runs and decodes (a schema is safe for concurrent use), so their
// pools stay one bounded set per query.
type serveRunner[S sym.State, E, R any] struct {
	id     string
	q      *core.Query[S, E, R]
	format func(key string, r R) string
	sc     *sym.Schema[S]
	scErr  error
}

// SchemaKey names the map-output schema for cache keying. Serve runs
// always map with default SympleOptions, so the query ID is the whole
// key; grow it if serve ever maps under options that change bundles.
func (r *serveRunner[S, E, R]) SchemaKey() string { return "symple/" + r.id }

func (r *serveRunner[S, E, R]) Mapper(trace *obs.Trace) (mapreduce.MapFunc, error) {
	if r.scErr != nil {
		return nil, r.scErr
	}
	return core.SympleSchemaMapper(r.q, r.sc, core.SympleOptions{}, trace)
}

func (r *serveRunner[S, E, R]) Resume(prev serve.Fold) (serve.Session, error) {
	if r.scErr != nil {
		return nil, r.scErr
	}
	s := &serveSession[S, E, R]{r: r, states: map[string]S{}}
	if prev != nil {
		f, ok := prev.(*serveFold[S])
		if !ok {
			return nil, fmt.Errorf("query %s: resuming from a foreign fold %T", r.id, prev)
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
	r      *serveRunner[S, E, R]
	n      int
	states map[string]S
	sums   []*sym.Summary[S] // decode scratch
}

func (s *serveSession[S, E, R]) Fold(bundles *serve.Bundles) error {
	for i := range bundles.Len() {
		key, data := bundles.At(i)
		sums, err := s.r.sc.DecodeSummaryBundle(s.sums[:0], data)
		if err != nil {
			return err
		}
		st, ok := s.states[key]
		if !ok {
			st = s.r.q.NewState()
		}
		// The summaries are left to the GC, not released: a released
		// summary parks in the runner's schema until a mapper reuses it.
		next, err := sym.ApplyAll(st, sums)
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
		results[key] = s.r.q.Result(key, st)
	}
	d, n := digestResults(results, s.r.format)
	return &serveFold[S]{n: s.n, states: s.states, res: serve.Result{Digest: d, NumResults: n}}
}
