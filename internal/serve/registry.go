// Package serve is the long-running query service: a multi-tenant
// server that hosts named datasets, accepts concurrent jobs over the
// cluster frame protocol (job_submit/accept/update/result/cancel), and
// answers them from standing folds backed by a summary cache.
//
// The service is the "Monoidify!" payoff of the paper's summaries:
// because a segment's symbolic summary is a composable monoid element,
// it depends only on (segment content, query schema) — never on which
// job asked. The cache stores each mapped segment's encoded per-key
// summary bundles under that key (the content digest is computed once,
// when the segment is hosted). On top of it, every hosted dataset keeps
// one standing fold per query schema: the applied per-group states of
// its first n segments and their formatted Result. Since ApplyAll ≡
// Apply∘ComposeAll (§4.2), that prefix is a complete summary of the
// data it covers, so a re-submitted job returns the stored Result, an
// append job folds only the new segments onto it, and a tail job
// extends it per refresh. Admission control (fair per-tenant FIFO with
// concurrency and in-flight-memory budgets, plus global queue-depth
// rejection) keeps one tenant from starving the rest.
package serve

import "repro/internal/cluster"

// Result is one fold's observable outcome, mirroring queries.Run: the
// order-insensitive digest of the formatted result lines and the count
// of non-empty lines.
type Result struct {
	Digest     uint64
	NumResults int
}

// Fold is a standing-fold snapshot: the fold of a dataset's first
// Segments() segments under one query schema, with its formatted
// Result. A snapshot is immutable once built, so any number of jobs may
// read and resume from it concurrently.
type Fold interface {
	// Segments is the number of dataset segments folded in.
	Segments() int
	// Result is the formatted, digested result of those segments.
	Result() Result
}

// Session extends one snapshot by the segments after it. It is private
// to the job that resumed it; the snapshot it started from is never
// modified.
type Session interface {
	// Fold applies one segment's per-key summary bundles. Segments must
	// be folded in dataset order, continuing where the snapshot ends;
	// the bundles are immutable and may be shared with the cache.
	Fold(bundles *Bundles) error
	// Freeze formats the result and returns the extended snapshot. The
	// session must not be used afterwards.
	Freeze() Fold
}

// Runner folds one query. It is the serve side of the query's
// cluster.Binding: the service resolves a job's query through
// cluster.Lookup, the process's one query table, and serves it iff the
// binding also implements Runner. Implementations live in
// internal/queries, which holds the typed Query values; the service
// itself is query-agnostic.
type Runner interface {
	// Binding supplies the map side of a cold run: Mapper with
	// cluster.JobSpec{Query: id} is exactly the mapper a worker and the
	// in-process SYMPLE engine run under default options, so the bundles
	// a serve job caches are the bytes a batch run shuffles.
	cluster.Binding
	// SchemaKey names the query schema for cache keying: two jobs share
	// cached bundles and standing folds iff their SchemaKeys match. It
	// must change when anything that affects map output changes (query
	// ID, map-side engine options such as combine). Whether a segment
	// carries columns does not count: it changes how the mapper groups,
	// not what it emits.
	SchemaKey() string
	// Resume starts a session from prev, or from the empty dataset when
	// prev is nil. prev must come from this runner.
	Resume(prev Fold) (Session, error)
}

// lookupRunner resolves a query ID to its runner, or nil when no
// binding serves it.
func lookupRunner(query string) Runner {
	r, _ := cluster.Lookup(query).(Runner)
	return r
}
