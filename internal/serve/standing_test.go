package serve_test

import (
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

// jobTrace holds the attrs of one serve job's spans: its root and its
// fold_resume and fold children. A job that folds nothing (a warm job)
// has no fold span; its attrs are nil.
type jobTrace struct {
	root, resume, fold map[string]int64
}

// traceOf finds the one serve job of tenant among spans.
func traceOf(t *testing.T, spans []*obs.Span, tenant string) jobTrace {
	t.Helper()
	var jt jobTrace
	var rootID int64
	for _, sp := range spans {
		if sp.Kind == obs.KindJob && sp.Parent == 0 && sp.Tags["tenant"] == tenant {
			if rootID != 0 {
				t.Fatalf("two serve roots for tenant %s in one job's trace", tenant)
			}
			rootID, jt.root = sp.ID, sp.Attrs
		}
	}
	if rootID == 0 {
		t.Fatalf("no serve root for tenant %s", tenant)
	}
	for _, sp := range spans {
		if sp.Parent != rootID {
			continue
		}
		switch sp.Kind {
		case obs.KindResume:
			jt.resume = sp.Attrs
		case obs.KindFold:
			jt.fold = sp.Attrs
		}
	}
	if jt.resume == nil {
		t.Fatal("serve job has no fold_resume span")
	}
	return jt
}

// submitTraced runs one batch job and returns its result and the
// trace of the spans emitted meanwhile.
func submitTraced(t *testing.T, sink *obs.MemSink, c *serve.Client, tenant, query, dataset string) (cluster.JobResult, jobTrace) {
	t.Helper()
	mark := len(sink.Spans())
	res := submitWait(t, c, tenant, query, dataset)
	return res, traceOf(t, sink.Spans()[mark:], tenant)
}

// sequential is the reference result of spec over segs.
func sequential(t *testing.T, spec *queries.Spec, segs []*mapreduce.Segment) goldenEntry {
	t.Helper()
	run, err := spec.Sequential(segs)
	if err != nil {
		t.Fatalf("%s sequential: %v", spec.ID, err)
	}
	return goldenEntry{run.Digest, run.NumResults}
}

// TestServeStandingFoldReveal reveals every dataset segment by segment,
// all 12 queries, with one job per prefix. Each job must resume from
// the standing fold the previous job published and fold exactly the
// new segment — pinned by the job's fold_resume and fold spans — and
// match the sequential engine over the same prefix; the full dataset
// lands on the golden digest.
func TestServeStandingFoldReveal(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	sink := obs.NewMemSink()
	srv, addr := startServer(t, serve.Config{Trace: obs.NewTrace(sink)})
	c := dialClient(t, addr)
	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		ds := "reveal-" + spec.ID
		srv.AddDataset(ds, segs[:1])
		for n := 1; n <= len(segs); n++ {
			if n > 1 {
				if err := srv.AppendSegment(ds, segs[n-1]); err != nil {
					t.Fatal(err)
				}
			}
			res, tr := submitTraced(t, sink, c, "reveal", spec.ID, ds)
			if want := sequential(t, spec, segs[:n]); res.Digest != want.digest || res.NumResults != want.results {
				t.Errorf("%s prefix %d: digest %016x (%d), sequential %016x (%d)",
					spec.ID, n, res.Digest, res.NumResults, want.digest, want.results)
			}
			if tr.resume[obs.AttrSegments] != int64(n-1) || tr.fold[obs.AttrSegments] != 1 {
				t.Errorf("%s prefix %d: resumed from %d segments and folded %d, want %d and 1",
					spec.ID, n, tr.resume[obs.AttrSegments], tr.fold[obs.AttrSegments], n-1)
			}
			if res.Segments != n || res.CacheHits != n-1 || res.MappedSegments != 1 {
				t.Errorf("%s prefix %d: %d segments, %d cached, %d mapped; want %d/%d/1",
					spec.ID, n, res.Segments, res.CacheHits, res.MappedSegments, n, n-1)
			}
		}
		res, tr := submitTraced(t, sink, c, "reveal", spec.ID, ds)
		checkResult(t, "revealed", spec.ID, res, golden)
		if tr.fold != nil || res.CacheHits != len(segs) || res.MappedSegments != 0 {
			t.Errorf("%s warm: folded %v, cached %d, mapped %d; want no fold, %d cached",
				spec.ID, tr.fold, res.CacheHits, res.MappedSegments, len(segs))
		}
	}
	if err := (obs.Verifier{}).Check(sink.Spans()); err != nil {
		t.Errorf("trace verifier: %v", err)
	}
}

// TestServeStandingFoldConcurrentResume starts two jobs that resume
// from the same snapshot at once, for every query: both extend the
// shared group states by the appended segment, so both must land on
// the golden digest — and the race detector must stay quiet.
func TestServeStandingFoldConcurrentResume(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	srv, addr := startServer(t, serve.Config{})
	clients := []*serve.Client{dialClient(t, addr), dialClient(t, addr)}
	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		ds := "conc-" + spec.ID
		srv.AddDataset(ds, segs[:len(segs)-1])
		submitWait(t, clients[0], "conc-0", spec.ID, ds) // publishes the snapshot
		if err := srv.AppendSegment(ds, segs[len(segs)-1]); err != nil {
			t.Fatal(err)
		}
		results := make([]cluster.JobResult, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j, err := c.Submit(cluster.JobSubmit{Tenant: "conc-" + strconv.Itoa(i), Query: spec.ID, Dataset: ds})
				if err != nil {
					t.Errorf("%s: submit: %v", spec.ID, err)
					return
				}
				if results[i], err = j.Wait(); err != nil {
					t.Errorf("%s: job: %v", spec.ID, err)
				}
			}()
		}
		wg.Wait()
		for i, res := range results {
			checkResult(t, "concurrent", spec.ID, res, golden)
			if res.Segments != len(segs) || res.CacheHits < len(segs)-1 {
				t.Errorf("%s job %d: %d segments, %d cached; want %d, at least %d",
					spec.ID, i, res.Segments, res.CacheHits, len(segs), len(segs)-1)
			}
		}
	}
}

// TestServeStandingFoldLifetime pins when a standing fold dies:
// replacing a dataset by name drops it (the next job re-folds the new
// segments, here the same segments rotated, and must not return the old
// Result), and FlushCache drops it together with the segment bundles.
func TestServeStandingFoldLifetime(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	sink := obs.NewMemSink()
	srv, addr := startServer(t, serve.Config{Trace: obs.NewTrace(sink)})
	c := dialClient(t, addr)
	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		ds := "life-" + spec.ID
		srv.AddDataset(ds, segs)
		res, _ := submitTraced(t, sink, c, "life", spec.ID, ds)
		checkResult(t, "original", spec.ID, res, golden)

		rotated := append(append([]*mapreduce.Segment(nil), segs[1:]...), segs[0])
		srv.AddDataset(ds, rotated)
		res, tr := submitTraced(t, sink, c, "life", spec.ID, ds)
		if want := sequential(t, spec, rotated); res.Digest != want.digest || res.NumResults != want.results {
			t.Errorf("%s replaced: digest %016x (%d), sequential %016x (%d)",
				spec.ID, res.Digest, res.NumResults, want.digest, want.results)
		}
		if tr.resume[obs.AttrSegments] != 0 || tr.fold[obs.AttrSegments] != int64(len(segs)) {
			t.Errorf("%s replaced: resumed from %d segments, folded %d; want 0 and %d",
				spec.ID, tr.resume[obs.AttrSegments], tr.fold[obs.AttrSegments], len(segs))
		}
		// Rotation changes positions, not contents: every bundle is cached.
		if res.MappedSegments != 0 {
			t.Errorf("%s replaced: mapped %d segments, want 0", spec.ID, res.MappedSegments)
		}
	}

	spec := queries.ByID("B3")
	srv.AddDataset("flush", datasets[spec.Dataset])
	submitWait(t, c, "life", spec.ID, "flush")
	srv.FlushCache()
	res, tr := submitTraced(t, sink, c, "life", spec.ID, "flush")
	checkResult(t, "post-flush", spec.ID, res, golden)
	if tr.resume[obs.AttrSegments] != 0 || res.MappedSegments != queries.GoldenSegments {
		t.Errorf("post-flush: resumed from %d segments, mapped %d; want 0 and %d",
			tr.resume[obs.AttrSegments], res.MappedSegments, queries.GoldenSegments)
	}
}

// TestServeTailSeededMatchesCold runs two tail jobs over identical
// datasets: one cold, one whose dataset already has a standing fold,
// with a batch job racing every refresh of the seeded one (so its tail
// may resume from a fold the batch job published). Both must emit the
// same update sequence, ending on the golden digest.
func TestServeTailSeededMatchesCold(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)
	batch := dialClient(t, addr)

	type update struct {
		seq           uint64
		digest        uint64
		results, segs int
	}
	for _, spec := range queries.All() {
		id := spec.ID
		segs := datasets[spec.Dataset]
		names := []string{"tail-cold-" + id, "tail-seeded-" + id}
		for _, ds := range names {
			srv.AddDataset(ds, segs[:2])
		}
		submitWait(t, batch, "batch", id, names[1])
		jobs := make([]*serve.Job, len(names))
		seen := make([][]update, len(names))
		for i, ds := range names {
			j, err := c.Submit(cluster.JobSubmit{Tenant: "tail", Query: id, Dataset: ds, Tail: true, TailEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		await := func(i, n int) {
			t.Helper()
			for {
				select {
				case u, ok := <-jobs[i].Updates():
					if !ok {
						res, err := jobs[i].Wait()
						t.Fatalf("%s tail settled early: %+v err=%v", names[i], res, err)
					}
					seen[i] = append(seen[i], update{u.Seq, u.Digest, u.NumResults, u.Segments})
					if u.Segments >= n {
						return
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%s: timed out waiting for the update over %d segments", names[i], n)
				}
			}
		}
		for i := range names {
			await(i, 2)
		}
		for n := 3; n <= len(segs); n++ {
			for _, ds := range names {
				if err := srv.AppendSegment(ds, segs[n-1]); err != nil {
					t.Fatal(err)
				}
			}
			j, err := batch.Submit(cluster.JobSubmit{Tenant: "batch", Query: id, Dataset: names[1]})
			if err != nil {
				t.Fatal(err)
			}
			for i := range names {
				await(i, n)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		for i := range names {
			if err := jobs[i].Cancel(); err != nil {
				t.Fatal(err)
			}
			if res, err := jobs[i].Wait(); err == nil || res.Err != "cancelled" {
				t.Fatalf("%s: cancelled tail settled with %q, err %v", names[i], res.Err, err)
			}
		}
		if len(seen[0]) != len(seen[1]) {
			t.Fatalf("%s: cold tail emitted %d updates, seeded %d", id, len(seen[0]), len(seen[1]))
		}
		for k := range seen[0] {
			if seen[0][k] != seen[1][k] {
				t.Errorf("%s update %d: cold %+v, seeded %+v", id, k+1, seen[0][k], seen[1][k])
			}
		}
		last := seen[0][len(seen[0])-1]
		if want := golden[id]; last.digest != want.digest || last.results != want.results {
			t.Errorf("%s tail: digest %016x (%d), golden %016x (%d)", id, last.digest, last.results, want.digest, want.results)
		}
	}
}

// pipeListener is a net.Listener over in-memory pipes. net.Pipe is
// unbuffered, so a client that stops reading blocks the server's next
// write for good — a deterministic stalled reader.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a new pipe whose server end Accept
// hands out.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(10 * time.Second):
		t.Fatal("pipe listener: no Accept")
	}
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestServeStalledReaderReleasesBudget: a job whose client stops
// reading before its result arrives must not keep its tenant's
// admission budget. With TenantJobs=1, a second job of the same tenant
// on another connection has to be admitted and settle while the first
// job's result write is still blocked.
func TestServeStalledReaderReleasesBudget(t *testing.T) {
	checkGoroutineLeaks(t)
	srv := serve.New(serve.Config{
		Budget: serve.Budget{TenantJobs: 1},
		Engine: mapreduce.Config{NumReducers: 2},
	})
	ln := newPipeListener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	spec := queries.ByID("G1")
	segs := queries.GoldenDatasets(queries.GoldenSegments)[spec.Dataset]
	srv.AddDataset(spec.Dataset, segs)

	// The stalled client speaks raw frames: hello, one submit, read the
	// accept — and never read again.
	raw := ln.dial(t)
	defer raw.Close()
	fc := cluster.NewFrameConn(raw)
	if err := fc.Write(cluster.FrameHello, cluster.EncodeHello()); err != nil {
		t.Fatal(err)
	}
	if f, err := fc.Next(); err != nil || f.Type != cluster.FrameHello {
		t.Fatalf("hello reply: %v %v", f.Type, err)
	}
	sub := cluster.JobSubmit{Tenant: "stall", Query: spec.ID, Dataset: spec.Dataset}
	if err := fc.Write(cluster.FrameJobSubmit, cluster.EncodeJobSubmit(sub)); err != nil {
		t.Fatal(err)
	}
	f, err := fc.Next()
	if err != nil || f.Type != cluster.FrameJobAccept {
		t.Fatalf("accept: %v %v", f.Type, err)
	}
	if acc, err := cluster.DecodeJobAccept(f.Payload); err != nil || !acc.OK {
		t.Fatalf("first job not accepted: %+v %v", acc, err)
	}

	c, err := serve.NewClient(ln.dial(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	settled := make(chan cluster.JobResult, 1)
	go func() {
		res, _ := j.Wait()
		settled <- res
	}()
	select {
	case res := <-settled:
		want := sequential(t, spec, segs)
		if res.Err != "" || res.Digest != want.digest || res.NumResults != want.results {
			t.Errorf("second job: err %q digest %016x (%d), want %016x (%d)",
				res.Err, res.Digest, res.NumResults, want.digest, want.results)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("second job never settled: the stalled result write holds the tenant's budget")
	}
}

// BenchmarkServeWarm is the warm serve path end to end: an in-process
// server over loopback hosting the golden datasets, re-submitting B3
// (the bing query with the most groups) after one cold run. Every
// iteration is a full job — submit, admission, standing-fold lookup,
// result frame — with zero map work, which the loop asserts.
func BenchmarkServeWarm(b *testing.B) {
	srv := serve.New(serve.Config{Engine: mapreduce.Config{NumReducers: 3}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	for name, segs := range queries.GoldenDatasets(queries.GoldenSegments) {
		srv.AddDataset(name, segs)
	}
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sub := cluster.JobSubmit{Tenant: "bench", Query: "B3", Dataset: "bing"}
	run := func() cluster.JobResult {
		j, err := c.Submit(sub)
		if err != nil {
			b.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	cold := run()
	b.ResetTimer()
	for range b.N {
		if res := run(); res.MappedSegments != 0 || res.Digest != cold.Digest {
			b.Fatalf("warm B3: mapped %d, digest %016x; cold digest %016x", res.MappedSegments, res.Digest, cold.Digest)
		}
	}
}
