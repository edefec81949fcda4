package cluster

import (
	"fmt"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// The query table maps a JobSpec.Query key to the query's Binding. User
// map functions are closures and cannot cross the socket, so
// coordinator and worker agree out of band on what a query name means:
// both processes link the same bindings (internal/queries binds every
// query once per process), and the assignment carries only the key plus
// the option knobs. cluster cannot import queries — queries imports
// cluster — which is why the table is filled by registration. It is the
// one query table of the process: the query service (internal/serve)
// resolves its fold runners from it too.

// Binding is one query bound for execution, built once per process.
type Binding interface {
	// Mapper builds the query's map side for spec. trace receives the
	// worker-side spans (map parse/exec chunks) that ship back to the
	// coordinator; it may be nil.
	Mapper(spec JobSpec, trace *obs.Trace) (mapreduce.MapFunc, error)
	// Combiner builds the group combiner of one worker-resident reduce
	// attempt. trace receives the attempt's spans.
	Combiner(trace *obs.Trace) GroupCombiner
}

// GroupCombiner folds the merged key groups of one reduce attempt on the
// partition owner before they cross back to the coordinator — for
// SYMPLE jobs, the whole reduce of each group down to one constant
// summary (core.OwnerFold), which is what shrinks the reduce reply to
// KBs.
type GroupCombiner interface {
	// Combine folds one group. The rows slice and its values are only
	// valid for the call; the returned rows must not alias them unless
	// they are the input rows unchanged (the "cannot combine, pass
	// through" fallback, which leaves any error to the coordinator's
	// reducer).
	Combine(key string, rows []mapreduce.Shuffled) []mapreduce.Shuffled
	// Flush ends the attempt, emitting any aggregate spans.
	Flush()
}

var (
	regMu    sync.RWMutex
	bindings = map[string]Binding{}
)

// Register adds a query's binding to the table. Each query binds once
// per process; registering an ID twice panics.
func Register(query string, b Binding) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := bindings[query]; dup {
		panic(fmt.Sprintf("cluster: query %q registered twice", query))
	}
	bindings[query] = b
}

// Lookup returns the binding registered for query, or nil.
func Lookup(query string) Binding {
	regMu.RLock()
	defer regMu.RUnlock()
	return bindings[query]
}

// lookupBinding resolves the binding a worker request names.
func lookupBinding(query string) (Binding, error) {
	if b := Lookup(query); b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("cluster: no job registered for query %q (did the worker link the query bindings?)", query)
}
