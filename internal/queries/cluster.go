package queries

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Cluster wiring: user map functions are closures over typed queries
// and cannot cross a socket, so coordinator and worker instead agree on
// a table key — the query ID — and both sides link the same bindings
// (spec.go). A worker process just has to bind the queries once at
// startup.

// Mapper is the query's SYMPLE map side under spec's map-side options,
// over the binding's one schema.
func (b *binding[S, E, R]) Mapper(spec cluster.JobSpec, trace *obs.Trace) (mapreduce.MapFunc, error) {
	return core.SympleMapper(b.q, b.sc, core.SympleOptions{
		Combine:        spec.Combine,
		MemoSize:       spec.MemoSize,
		MapParallelism: spec.MapParallelism,
	}, trace)
}

// Combiner is the owner fold of one w2w reduce attempt.
func (b *binding[S, E, R]) Combiner(trace *obs.Trace) cluster.GroupCombiner {
	return core.SympleCombiner(b.q, b.sc, trace)
}

// RegisterClusterJobs binds every query into the cluster query table,
// which also serves the query service. Worker and server processes
// (cmd/sympled, the spawned worker modes) call it once at startup; it is
// idempotent, and All and ByID bind the same way.
func RegisterClusterJobs() { bound() }

// ClusterSpec builds the cluster.JobSpec a coordinator ships to
// workers for query id under the given engine config and options. The
// spec must mirror exactly the knobs that shape map output — reducer
// count, shuffle compression, and the map-side SympleOptions — or the
// worker would produce different bytes than the in-process engine.
func ClusterSpec(id string, conf mapreduce.Config, opt core.SympleOptions) cluster.JobSpec {
	return cluster.JobSpec{
		Query:          id,
		NumReducers:    max(conf.NumReducers, 1), // the engine's default for 0
		Compress:       conf.CompressShuffle,
		Combine:        opt.Combine,
		MemoSize:       opt.MemoSize,
		MapParallelism: opt.MapParallelism,
	}
}

// GoldenSegments is the segment count the committed golden corpora are
// cut into (testdata/golden_digests.txt).
const GoldenSegments = 6

// GoldenDatasets generates the seeded laptop-scale instances of all
// four corpora that the golden digests and the cross-package
// differential suites (queries, cluster) run against. Deterministic in
// (segments, seeds), so every process — including spawned worker
// subprocesses in other tests — regenerates identical records.
func GoldenDatasets(segments int) map[string][]*mapreduce.Segment {
	return map[string][]*mapreduce.Segment{
		"github": data.GenGithub(data.GithubConfig{
			Records: 8000, Repos: 300, Segments: segments, Filler: 8, Seed: 11}),
		"bing": data.GenBing(data.BingConfig{
			Records: 8000, Users: 400, Geos: 12, Segments: segments,
			Filler: 8, Seed: 12, Outages: 6}),
		"twitter": data.GenTwitter(data.TwitterConfig{
			Records: 8000, Hashtags: 200, Users: 500, Segments: segments,
			Filler: 8, Seed: 13}),
		"redshift": data.GenRedshift(data.RedshiftConfig{
			Records: 8000, Advertisers: 40, Segments: segments,
			Seed: 14, DarkWindows: 2}),
	}
}
