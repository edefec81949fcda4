// Package serve_test is the query-service differential suite: it proves
// the multi-tenant incremental service equivalent to the batch SYMPLE
// engine by driving real jobs over loopback TCP and requiring every
// interleaving of segment arrival and cache reuse to reproduce the
// committed golden digests byte for byte — cold, warm, appended,
// evicted, under concurrency, and under injected faults.
package serve_test

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

// TestMain binds every query once, which puts each query's fold runner
// in the cluster query table the service resolves jobs through.
func TestMain(m *testing.M) {
	queries.RegisterClusterJobs()
	os.Exit(m.Run())
}

// checkGoroutineLeaks fails the test if goroutines have not returned to
// the baseline by cleanup — the anchor for the service's drain
// guarantees on success, cancel, and disconnect paths.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d running, baseline %d\n%s",
					runtime.NumGoroutine(), base, buf[:n])
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// goldenEntry mirrors one line of the committed golden digest file.
type goldenEntry struct {
	digest  uint64
	results int
}

// readGolden parses the queries package's committed reference digests.
func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	path := filepath.Join("..", "queries", "testdata", "golden_digests.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests: %v", err)
	}
	want := make(map[string]goldenEntry, 12)
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		d, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			t.Fatal(err)
		}
		want[fields[0]] = goldenEntry{d, n}
	}
	if len(want) != 12 {
		t.Fatalf("golden file has %d queries, want 12", len(want))
	}
	return want
}

// startServer runs a service on loopback; cleanup stops it and waits
// for the accept loop and every connection to drain.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	if cfg.Engine.NumReducers == 0 {
		cfg.Engine.NumReducers = 3
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// dialClient connects a client; cleanup closes it.
func dialClient(t *testing.T, addr string) *serve.Client {
	t.Helper()
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// submitWait submits one batch job and waits for its result.
func submitWait(t *testing.T, c *serve.Client, tenant, query, dataset string) cluster.JobResult {
	t.Helper()
	j, err := c.Submit(cluster.JobSubmit{Tenant: tenant, Query: query, Dataset: dataset})
	if err != nil {
		t.Fatalf("submit %s/%s: %v", query, dataset, err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatalf("job %s/%s: %v", query, dataset, err)
	}
	return res
}

// checkResult compares one job result against the golden reference.
func checkResult(t *testing.T, label, query string, res cluster.JobResult, golden map[string]goldenEntry) {
	t.Helper()
	want := golden[query]
	if res.Digest != want.digest || res.NumResults != want.results {
		t.Errorf("%s %s: digest %016x (%d results), golden %016x (%d)",
			label, query, res.Digest, res.NumResults, want.digest, want.results)
	}
}

// TestServeBatchGolden is the core tentpole contract: every query run
// cold through the service reproduces the committed golden digest, a
// warm re-submission reproduces it again with zero map work — pinned
// both by the result's provenance counters and by a trace-span
// assertion over the warm job's subtree — and the whole trace passes
// the verifier, including the serve-cache invariant.
func TestServeBatchGolden(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	sink := obs.NewMemSink()
	reg := obs.NewRegistry()
	srv, addr := startServer(t, serve.Config{Trace: obs.NewTrace(sink), Registry: reg})
	for name, segs := range queries.GoldenDatasets(queries.GoldenSegments) {
		srv.AddDataset(name, segs)
	}
	c := dialClient(t, addr)

	for _, spec := range queries.All() {
		cold := submitWait(t, c, "acme", spec.ID, spec.Dataset)
		checkResult(t, "cold", spec.ID, cold, golden)
		if cold.MappedSegments != queries.GoldenSegments || cold.CacheHits != 0 {
			t.Errorf("cold %s: mapped %d cached %d, want %d/0",
				spec.ID, cold.MappedSegments, cold.CacheHits, queries.GoldenSegments)
		}
		warm := submitWait(t, c, "acme", spec.ID, spec.Dataset)
		checkResult(t, "warm", spec.ID, warm, golden)
		if warm.CacheHits != queries.GoldenSegments || warm.MappedSegments != 0 {
			t.Errorf("warm %s: cached %d mapped %d, want %d/0",
				spec.ID, warm.CacheHits, warm.MappedSegments, queries.GoldenSegments)
		}
	}

	// Trace-level pin of the zero-map-work claim: for every warm serve
	// root (cached == segments > 0), no map span anywhere in the trace
	// may have that root on its ancestor chain.
	spans := sink.Spans()
	byID := make(map[int64]*obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	warmRoots := map[int64]bool{}
	for _, sp := range spans {
		if sp.Kind == obs.KindJob && sp.Attr(obs.AttrSegments) > 0 &&
			sp.Attr(obs.AttrCachedSegments) == sp.Attr(obs.AttrSegments) {
			warmRoots[sp.ID] = true
		}
	}
	if len(warmRoots) != len(queries.All()) {
		t.Errorf("trace has %d warm serve roots, want %d", len(warmRoots), len(queries.All()))
	}
	mapKinds := map[string]bool{obs.KindMapAttempt: true, obs.KindMapParse: true, obs.KindMapExec: true}
	var mapSpans int
	for _, sp := range spans {
		if !mapKinds[sp.Kind] {
			continue
		}
		mapSpans++
		for p, hops := sp.Parent, 0; p != 0 && hops < 16; hops++ {
			if warmRoots[p] {
				t.Fatalf("map span %d (%s) under warm serve root %d", sp.ID, sp.Kind, p)
			}
			parent := byID[p]
			if parent == nil {
				break
			}
			p = parent.Parent
		}
	}
	if mapSpans == 0 {
		t.Error("trace has no map spans at all — cold runs were not traced")
	}
	if err := (obs.Verifier{}).Check(spans); err != nil {
		t.Errorf("trace verifier: %v", err)
	}

	// Service metrics must reflect what happened: 24 completed jobs, 12
	// fully warm, no rejections or failures.
	snap := reg.Snapshot()
	if got := snap[serve.MetricJobsCompleted]; got != int64(2*len(queries.All())) {
		t.Errorf("completed jobs metric %d, want %d", got, 2*len(queries.All()))
	}
	if snap[serve.MetricJobsRejected] != 0 || snap[serve.MetricJobsFailed] != 0 {
		t.Errorf("unexpected rejected/failed jobs: %v / %v",
			snap[serve.MetricJobsRejected], snap[serve.MetricJobsFailed])
	}
	st := srv.CacheStats()
	if st.Hits < int64(12*queries.GoldenSegments) {
		t.Errorf("cache hits %d, want at least %d", st.Hits, 12*queries.GoldenSegments)
	}
}

// TestServeIncrementalAppend drives the metamorphic incremental suite:
// for every query, the dataset is revealed segment by segment with a
// batch re-submission after each prefix, so the service folds cached
// prefix summaries plus exactly the newly arrived segments — and every
// prefix's digest must match a from-scratch batch run over the same
// prefix, with the full dataset landing on the committed golden digest.
func TestServeIncrementalAppend(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)

	// Reference server with no cache reuse across prefixes: a fresh
	// service per prefix would be equivalent but slower; instead compute
	// references through the same service under a different schema-less
	// dataset name, flushing the cache to force full re-maps.
	ref, refAddr := startServer(t, serve.Config{})
	rc := dialClient(t, refAddr)

	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		ds := "inc-" + spec.ID
		srv.AddDataset(ds, segs[:1])
		ref.AddDataset(ds, segs[:1])
		for n := 1; n <= len(segs); n++ {
			if n > 1 {
				if err := srv.AppendSegment(ds, segs[n-1]); err != nil {
					t.Fatal(err)
				}
				if err := ref.AppendSegment(ds, segs[n-1]); err != nil {
					t.Fatal(err)
				}
			}
			got := submitWait(t, c, "inc", spec.ID, ds)
			if got.Segments != n {
				t.Fatalf("%s prefix %d: folded %d segments", spec.ID, n, got.Segments)
			}
			// Incrementality: beyond the first submission, only the
			// newly appended segment may be mapped.
			if n > 1 && got.MappedSegments != 1 {
				t.Errorf("%s prefix %d: mapped %d segments, want 1 (cached %d)",
					spec.ID, n, got.MappedSegments, got.CacheHits)
			}
			ref.FlushCache()
			want := submitWait(t, rc, "inc", spec.ID, ds)
			if want.MappedSegments != n {
				t.Fatalf("reference %s prefix %d: mapped %d, want %d (flush broken?)",
					spec.ID, n, want.MappedSegments, n)
			}
			if got.Digest != want.Digest || got.NumResults != want.NumResults {
				t.Errorf("%s prefix %d: incremental digest %016x (%d), batch %016x (%d)",
					spec.ID, n, got.Digest, got.NumResults, want.Digest, want.NumResults)
			}
		}
		final := submitWait(t, c, "inc", spec.ID, ds)
		checkResult(t, "final", spec.ID, final, golden)
		if final.CacheHits != len(segs) || final.MappedSegments != 0 {
			t.Errorf("%s final: cached %d mapped %d, want %d/0",
				spec.ID, final.CacheHits, final.MappedSegments, len(segs))
		}
	}
}

// TestServeSharedSegmentAcrossDatasets hosts one *Segment in two
// datasets: every golden corpus in full, then its last segment alone as
// "<name>-tail". The segment sits at a different position in each, so
// the server must key its cold-run bundles by its own hosted positions,
// never by IDs written into the caller's segments — otherwise the full
// corpus folds the wrong bundles for that segment, and the cache keeps
// them for every later job. All 12 queries, cold and warm, on both
// datasets, must match the sequential engine over the same records.
func TestServeSharedSegmentAcrossDatasets(t *testing.T) {
	checkGoroutineLeaks(t)
	srv, addr := startServer(t, serve.Config{})
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	for name, segs := range datasets {
		srv.AddDataset(name, segs)
	}
	for name, segs := range datasets {
		srv.AddDataset(name+"-tail", segs[len(segs)-1:])
	}
	c := dialClient(t, addr)
	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		for _, v := range []struct {
			dataset string
			segs    []*mapreduce.Segment
		}{
			{spec.Dataset, segs},
			{spec.Dataset + "-tail", segs[len(segs)-1:]},
		} {
			want, err := spec.Sequential(v.segs)
			if err != nil {
				t.Fatalf("%s sequential over %s: %v", spec.ID, v.dataset, err)
			}
			for _, label := range []string{"cold", "warm"} {
				got := submitWait(t, c, "shared", spec.ID, v.dataset)
				if got.Digest != want.Digest || got.NumResults != want.NumResults {
					t.Errorf("%s %s on %s: digest %016x (%d results), sequential %016x (%d)",
						label, spec.ID, v.dataset, got.Digest, got.NumResults, want.Digest, want.NumResults)
				}
			}
		}
	}
	for name, segs := range datasets {
		for i, seg := range segs {
			if seg.ID != i {
				t.Errorf("%s segment %d: hosting rewrote the caller's ID to %d", name, i, seg.ID)
			}
		}
	}
}

// TestServeEvictionMidStream covers the cache-eviction interleaving: a
// flush between submissions forces a full re-map, and a flush racing a
// running job is harmless (bundle maps are immutable) — digests stay
// golden throughout.
func TestServeEvictionMidStream(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	srv, addr := startServer(t, serve.Config{})
	for name, segs := range queries.GoldenDatasets(queries.GoldenSegments) {
		srv.AddDataset(name, segs)
	}
	c := dialClient(t, addr)
	spec := queries.ByID("G2")
	cold := submitWait(t, c, "evict", spec.ID, spec.Dataset)
	checkResult(t, "cold", spec.ID, cold, golden)
	srv.FlushCache()
	recold := submitWait(t, c, "evict", spec.ID, spec.Dataset)
	checkResult(t, "re-cold", spec.ID, recold, golden)
	if recold.MappedSegments != queries.GoldenSegments {
		t.Errorf("post-flush run mapped %d segments, want %d",
			recold.MappedSegments, queries.GoldenSegments)
	}
	if st := srv.CacheStats(); st.Evictions < int64(queries.GoldenSegments) {
		t.Errorf("evictions %d, want at least %d", st.Evictions, queries.GoldenSegments)
	}
}

// TestServeTail drives continuous-tail mode: a tail job emits its
// standing result, then a refreshed result per appended segment, each
// folding only the new arrival; the last update matches the committed
// golden digest and cancel settles the job cleanly.
func TestServeTail(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)

	for _, id := range []string{"G1", "B2", "T1", "R3"} {
		spec := queries.ByID(id)
		segs := datasets[spec.Dataset]
		ds := "tail-" + id
		srv.AddDataset(ds, segs[:1])
		j, err := c.Submit(cluster.JobSubmit{
			Tenant: "tailer", Query: id, Dataset: ds, Tail: true, TailEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		var last cluster.JobUpdate
		next := func() cluster.JobUpdate {
			t.Helper()
			select {
			case u, ok := <-j.Updates():
				if !ok {
					res, err := j.Wait()
					t.Fatalf("tail settled early: %+v err=%v", res, err)
				}
				return u
			case <-time.After(30 * time.Second):
				t.Fatal("timed out waiting for tail update")
			}
			panic("unreachable")
		}
		last = next()
		if last.Segments != 1 || last.Seq != 1 {
			t.Fatalf("%s initial update: seq %d over %d segments", id, last.Seq, last.Segments)
		}
		for n := 2; n <= len(segs); n++ {
			if err := srv.AppendSegment(ds, segs[n-1]); err != nil {
				t.Fatal(err)
			}
			for last.Segments < n {
				last = next()
			}
			if last.MappedSegments > n {
				t.Errorf("%s update %d: mapped %d segments cumulative, want <= %d",
					id, last.Seq, last.MappedSegments, n)
			}
		}
		want := golden[id]
		if last.Digest != want.digest || last.NumResults != want.results {
			t.Errorf("tail %s: digest %016x (%d), golden %016x (%d)",
				id, last.Digest, last.NumResults, want.digest, want.results)
		}
		if err := j.Cancel(); err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err == nil || res.Err != "cancelled" {
			t.Fatalf("cancelled tail settled with %q, err %v", res.Err, err)
		}
		if res.Updates < int(last.Seq) {
			t.Errorf("result reports %d updates, saw %d", res.Updates, last.Seq)
		}
	}
}
