package core

import (
	"fmt"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// SympleMapper builds the standalone map side of a SYMPLE query — the
// exact mapper RunSympleOpts wires into its in-process job — for use
// by a cluster worker. The worker executes assignments through this
// function and mapreduce.ExecuteMap, so the bytes it ships are the
// bytes the in-process engine would have produced for the same
// (task, segment) pair: groupby, symbolic execution, memoization and
// combining all behave identically, which is what the transport
// differential tests pin down.
//
// trace receives the worker-side spans (map parse/exec, spill encode)
// that ship back to the coordinator; it may be nil. The returned
// mapper owns private stats/mutex state, so one built mapper is safe
// for any number of sequential or concurrent attempts.
func SympleMapper[S sym.State, E, R any](q *Query[S, E, R], opt SympleOptions, trace *obs.Trace) (mapreduce.MapFunc, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	sc, err := sym.NewSchema(q.NewState)
	if err != nil {
		return nil, fmt.Errorf("core %q: %w", q.Name, err)
	}
	return SympleSchemaMapper(q, sc, opt, trace)
}

// SympleSchemaMapper is SympleMapper over a caller-owned schema of
// q.NewState's type. Mappers built over one schema share its pools, so
// a long-lived caller that builds a mapper per run (the query service)
// recycles one bounded set of path containers and parked summaries
// instead of stranding a fresh set per run.
func SympleSchemaMapper[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], opt SympleOptions, trace *obs.Trace) (mapreduce.MapFunc, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	stats := &SymStats{}
	return sympleMapFunc(q, sc, &mu, stats, opt, trace, nil), nil
}
