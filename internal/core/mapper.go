package core

import (
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// SympleMapper builds the standalone map side of a SYMPLE query over a
// caller-owned schema sc of q.NewState's type — the exact mapper
// RunSympleOpts wires into its in-process job. Cluster workers execute
// assignments through it and mapreduce.ExecuteMap, and the query
// service maps its cold runs through it, so the bytes they produce are
// the bytes the in-process engine would have shuffled for the same
// (task, segment) pair: groupby, symbolic execution, memoization and
// combining all behave identically, which is what the transport
// differential and bundle-identity tests pin down. Mappers built over
// one schema share its pools, so a long-lived caller recycles one
// bounded set of path containers and parked summaries.
//
// trace receives the map spans (map parse/exec, spill encode); it may
// be nil. The returned mapper owns private stats/mutex state, so one
// built mapper is safe for any number of sequential or concurrent
// attempts.
func SympleMapper[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], opt SympleOptions, trace *obs.Trace) (mapreduce.MapFunc, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	stats := &SymStats{}
	return sympleMapFunc(q, sc, &mu, stats, opt, trace, nil), nil
}
