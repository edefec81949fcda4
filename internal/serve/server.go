package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Budget bounds admission; zero fields take defaults.
	Budget Budget
	// CacheBytes bounds the summary cache (default 256 MiB).
	CacheBytes int64
	// Engine is the mapreduce config cold runs execute under; Trace and
	// Registry are overridden per run.
	Engine mapreduce.Config
	// Trace, when set, receives the service's spans: one serve job root
	// per job (tenant tag, fold provenance attrs), queue-wait and fold
	// children, and each cold engine run nested as a sub-job. Forked
	// per job, so concurrent jobs share one span ID space.
	Trace *obs.Trace
	// Registry, when set, receives service metrics (Metric* names plus
	// per-tenant tenant.<name>.* instruments).
	Registry *obs.Registry
}

// Server hosts datasets and serves query jobs over the frame protocol.
type Server struct {
	cfg     Config
	admit   *admitter
	cache   *Cache
	reg     *obs.Registry
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	nextJob atomic.Uint64

	mu       sync.Mutex
	datasets map[string]*dataset
}

// dataset is one named, append-only segment sequence and its standing
// folds. The folds live and die with the dataset: AddDataset under the
// same name replaces the whole struct, and FlushCache empties them.
type dataset struct {
	mu      sync.Mutex
	segs    []*mapreduce.Segment
	changed chan struct{} // closed and replaced on every append
	folds   map[string]Fold
}

// snapshot returns the current segments (shared slice prefix; segments
// are immutable) and a channel closed on the next append.
func (d *dataset) snapshot() ([]*mapreduce.Segment, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.segs[:len(d.segs):len(d.segs)], d.changed
}

// standing returns the schema's standing fold, or nil.
func (d *dataset) standing(schema string) Fold {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.folds[schema]
}

// publish makes f the schema's standing fold unless a fold at least as
// long was published meanwhile.
func (d *dataset) publish(schema string, f Fold) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur := d.folds[schema]; cur == nil || cur.Segments() < f.Segments() {
		d.folds[schema] = f
	}
}

// New returns a server ready to Serve.
func New(cfg Config) *Server {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		admit:    newAdmitter(cfg.Budget),
		cache:    NewCache(cfg.CacheBytes, cfg.Registry),
		reg:      cfg.Registry,
		ctx:      ctx,
		cancel:   cancel,
		datasets: map[string]*dataset{},
	}
}

// AddDataset publishes segs under name, replacing any previous dataset
// together with its standing folds. The server hosts copies whose IDs
// are the dataset positions (the fold order, and the mapper IDs cold
// runs key bundles by), and computes each segment's content digest here,
// once; the caller's segments are never modified apart from that
// digest memo, so one segment may be hosted in any number of datasets.
func (s *Server) AddDataset(name string, segs []*mapreduce.Segment) {
	d := &dataset{segs: make([]*mapreduce.Segment, len(segs)), changed: make(chan struct{}), folds: map[string]Fold{}}
	for i, seg := range segs {
		d.segs[i] = seg.WithID(i)
	}
	s.mu.Lock()
	s.datasets[name] = d
	s.mu.Unlock()
}

// AppendSegment appends one segment to a dataset and wakes its tail
// jobs. As in AddDataset, the server hosts a copy whose ID is the
// segment's dataset position and digests it once. The dataset's
// standing folds stay valid: they cover a prefix, and the next job
// folds only what lies past it.
func (s *Server) AppendSegment(name string, seg *mapreduce.Segment) error {
	s.mu.Lock()
	d := s.datasets[name]
	s.mu.Unlock()
	if d == nil {
		return fmt.Errorf("serve: unknown dataset %q", name)
	}
	d.mu.Lock()
	d.segs = append(d.segs, seg.WithID(len(d.segs)))
	close(d.changed)
	d.changed = make(chan struct{})
	d.mu.Unlock()
	return nil
}

func (s *Server) dataset(name string) *dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasets[name]
}

// FlushCache evicts the whole summary cache and drops every standing
// fold — the chaos eviction-mid-fold hook (cluster.ChaosServeEvict) and
// an operational escape hatch. In-flight folds are unaffected.
func (s *Server) FlushCache() {
	s.cache.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.datasets {
		d.mu.Lock()
		clear(d.folds)
		d.mu.Unlock()
	}
}

// CacheStats snapshots the summary cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Close stops the server: listeners close, queued and running jobs
// cancel, and Serve returns once every connection has drained.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// Serve accepts connections until Close (or ctx teardown via listener
// close). Every connection speaks the versioned frame protocol: one
// hello exchange, then job_submit/job_cancel frames in, job_accept/
// job_update/job_result frames out.
func (s *Server) Serve(ln net.Listener) error {
	stop := context.AfterFunc(s.ctx, func() { ln.Close() })
	defer stop()
	defer s.wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// runningJob is one accepted job's cancel handle, for FrameJobCancel
// and disconnect teardown.
type runningJob struct {
	cancel context.CancelFunc
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(s.ctx, func() { conn.Close() })
	defer stop()
	fc := cluster.NewFrameConn(conn)
	f, err := fc.Next()
	if err != nil || f.Type != cluster.FrameHello {
		return
	}
	if _, err := cluster.DecodeHello(f.Payload); err != nil {
		return
	}
	if err := fc.Write(cluster.FrameHello, cluster.EncodeHello()); err != nil {
		return
	}

	// Jobs are children of the connection context: a disconnect (read
	// error below) cancels every job the connection submitted, and the
	// WaitGroup keeps the conn goroutine alive until they settle — the
	// leak-check anchor for the disconnect path.
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	var jobs sync.WaitGroup
	defer jobs.Wait()
	var mu sync.Mutex
	active := map[uint64]*runningJob{}

	for {
		f, err := fc.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case cluster.FrameJobSubmit:
			sub, err := cluster.DecodeJobSubmit(f.Payload)
			if err != nil {
				return // unsynchronized stream
			}
			s.handleSubmit(ctx, fc, sub, &jobs, &mu, active)
		case cluster.FrameJobCancel:
			c, err := cluster.DecodeJobCancel(f.Payload)
			if err != nil {
				return
			}
			mu.Lock()
			if rj := active[c.ID]; rj != nil {
				rj.cancel()
			}
			mu.Unlock()
		default:
			return
		}
	}
}

// handleSubmit admits one submit and, when accepted, launches the job
// goroutine. The accept frame is written before the goroutine starts,
// so a job's accept always precedes its updates and result.
func (s *Server) handleSubmit(ctx context.Context, fc *cluster.FrameConn, sub cluster.JobSubmit,
	jobs *sync.WaitGroup, mu *sync.Mutex, active map[uint64]*runningJob) {
	s.reg.Counter(MetricJobsSubmitted).Inc()
	reject := func(reason string) {
		s.reg.Counter(MetricJobsRejected).Inc()
		if sub.Tenant != "" {
			s.reg.Counter("tenant." + sub.Tenant + ".rejected").Inc()
		}
		_ = fc.Write(cluster.FrameJobAccept, cluster.EncodeJobAccept(cluster.JobAccept{Reason: reason}))
	}
	if sub.Tenant == "" {
		reject("missing tenant")
		return
	}
	runner := lookupRunner(sub.Query)
	if runner == nil {
		reject("unknown query " + sub.Query)
		return
	}
	ds := s.dataset(sub.Dataset)
	if ds == nil {
		reject("unknown dataset " + sub.Dataset)
		return
	}
	segs, _ := ds.snapshot()
	var bytes int64
	for _, seg := range segs {
		bytes += seg.Bytes()
	}
	p, err := s.admit.enqueue(sub.Tenant, bytes)
	if err != nil {
		reject(err.Error())
		return
	}
	id := s.nextJob.Add(1)
	jctx, jcancel := context.WithCancel(ctx)
	mu.Lock()
	active[id] = &runningJob{cancel: jcancel}
	mu.Unlock()
	if err := fc.Write(cluster.FrameJobAccept, cluster.EncodeJobAccept(
		cluster.JobAccept{ID: id, OK: true, QueuePos: p.queuePos})); err != nil {
		jcancel()
	}
	s.reg.Counter("tenant." + sub.Tenant + ".jobs").Inc()
	jobs.Add(1)
	go func() {
		defer jobs.Done()
		defer jcancel()
		defer func() {
			mu.Lock()
			delete(active, id)
			mu.Unlock()
		}()
		s.runJob(jctx, fc, id, sub, runner, ds, p)
	}()
}

// foldState tracks one job's cumulative fold provenance.
type foldState struct {
	folded int // segments folded into the standing result
	cached int // of those, served from a standing fold or the summary cache
	mapped int // of those, mapped fresh by this job
}

// runJob waits for admission, brings the dataset's standing fold up to
// date (and keeps it so, for tail jobs), and settles with a JobResult.
func (s *Server) runJob(ctx context.Context, fc *cluster.FrameConn, id uint64,
	sub cluster.JobSubmit, runner Runner, ds *dataset, p *pending) {
	jt := s.cfg.Trace.Fork()
	root := jt.StartJob("serve/" + sub.Query + "/" + sub.Dataset)
	root.Tag("tenant", sub.Tenant)
	st := &foldState{}
	// held is set while the job owns its admission budget. settle
	// returns the budget before writing the result, so a client that
	// stops reading cannot pin its tenant's budget.
	held := false
	settled := false
	settle := func(res Result, updates int, errMsg string) {
		if settled {
			return
		}
		settled = true
		if held {
			held = false
			s.admit.release(p)
		}
		root.Attr(obs.AttrSegments, int64(st.folded)).
			Attr(obs.AttrCachedSegments, int64(st.cached)).
			Attr(obs.AttrMappedSegments, int64(st.mapped))
		if errMsg != "" {
			root.Tag("outcome", errMsg)
		}
		switch errMsg {
		case "":
			s.reg.Counter(MetricJobsCompleted).Inc()
		case "cancelled":
			s.reg.Counter(MetricJobsCancelled).Inc()
		default:
			s.reg.Counter(MetricJobsFailed).Inc()
		}
		// The root ends before the result is written: a client may read
		// the trace as soon as its result lands, and must find the root
		// there. The write's span therefore outlives the root; it is a
		// top-level span naming its job instead of a child of it.
		rootID := root.ID()
		root.End()
		ws := s.cfg.Trace.Start(obs.KindFrameWrite, "job_result").Tag("tenant", sub.Tenant).Attr(obs.AttrJob, rootID)
		writeFrame(ws, fc, cluster.FrameJobResult, cluster.EncodeJobResult(cluster.JobResult{
			ID: id, Err: errMsg, Digest: res.Digest, NumResults: res.NumResults,
			Segments: st.folded, CacheHits: st.cached, MappedSegments: st.mapped,
			Updates: updates,
		}))
	}

	// Admission wait, traced as a queue span under the job root.
	qs := jt.Start(obs.KindQueue, sub.Tenant).Tag("tenant", sub.Tenant)
	t0 := time.Now()
	select {
	case <-p.ready:
	case <-ctx.Done():
		if s.admit.cancel(p) {
			qs.Tag("outcome", "cancelled").End()
			settle(Result{}, 0, "cancelled")
			return
		}
		<-p.ready // granted concurrently with the cancel: own the budget
	}
	qs.End()
	held = true
	s.reg.Histogram(MetricQueueWaitNs).Observe(time.Since(t0).Nanoseconds())
	if ctx.Err() != nil {
		settle(Result{}, 0, "cancelled")
		return
	}

	segs, changed := ds.snapshot()
	cur, err := s.foldTo(ctx, jt, runner, sub.Query, ds, nil, segs, st)
	if err != nil {
		settle(Result{}, 0, jobErr(ctx, err))
		return
	}
	if !sub.Tail {
		settle(cur.Result(), 0, "")
		return
	}

	// Tail mode: emit the standing result now, then refresh every
	// TailEvery appended segments until cancelled.
	every := sub.TailEvery
	if every < 1 {
		every = 1
	}
	updates := 0
	emit := func(r Result) {
		updates++
		s.reg.Counter(MetricTailUpdates).Inc()
		writeFrame(jt.Start(obs.KindFrameWrite, "job_update"), fc, cluster.FrameJobUpdate, cluster.EncodeJobUpdate(cluster.JobUpdate{
			ID: id, Seq: uint64(updates), Digest: r.Digest, NumResults: r.NumResults,
			Segments: st.folded, CacheHits: st.cached, MappedSegments: st.mapped,
		}))
	}
	emit(cur.Result())
	for {
		select {
		case <-ctx.Done():
			settle(cur.Result(), updates, "cancelled")
			return
		case <-changed:
		}
		segs, changed = ds.snapshot()
		if len(segs)-cur.Segments() < every {
			continue
		}
		next, err := s.foldTo(ctx, jt, runner, sub.Query, ds, cur, segs, st)
		if err != nil {
			settle(cur.Result(), updates, jobErr(ctx, err))
			return
		}
		cur = next
		emit(cur.Result())
	}
}

// writeFrame writes one job frame under ws, a frame_write span.
func writeFrame(ws *obs.ActiveSpan, fc *cluster.FrameConn, typ cluster.FrameType, payload []byte) {
	ws.Attr(obs.AttrBytes, int64(len(payload)))
	if err := fc.Write(typ, payload); err != nil {
		ws.Tag("outcome", "error")
	}
	ws.End()
}

// jobErr classifies a fold error: a cancelled context settles the job
// as cancelled regardless of which layer surfaced it.
func jobErr(ctx context.Context, err error) string {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return "cancelled"
	}
	return err.Error()
}

// foldTo returns the fold of exactly segs, a snapshot of ds. It resumes
// from the longer of from (the job's own fold so far, nil at first) and
// the dataset's standing fold, as long as that covers no more than
// segs; the segments the resumed fold covers beyond from count as cache
// hits. Only the segments past it are folded — cached bundles, or one
// engine run over the uncached ones — and the extended fold is
// published as the dataset's standing fold.
func (s *Server) foldTo(ctx context.Context, jt *obs.Trace, runner Runner, query string,
	ds *dataset, from Fold, segs []*mapreduce.Segment, st *foldState) (Fold, error) {
	schema := runner.SchemaKey()
	rs := jt.Start(obs.KindResume, query)
	base := from
	if sf := ds.standing(schema); sf != nil && sf.Segments() <= len(segs) &&
		(base == nil || sf.Segments() > base.Segments()) {
		base = sf
	}
	n, had := 0, 0
	if base != nil {
		n = base.Segments()
	}
	if from != nil {
		had = from.Segments()
	}
	if k := n - had; k > 0 {
		s.cache.addHits(int64(k))
		st.folded += k
		st.cached += k
	}
	if base != nil && n == len(segs) {
		rs.Attr(obs.AttrSegments, int64(n)).End()
		return base, nil
	}
	rest := segs[n:]
	bundles := make([]*Bundles, len(rest))
	var missing []*mapreduce.Segment
	for i, seg := range rest {
		if b, ok := s.cache.Get(cacheKey{digest: seg.Digest(), schema: schema}); ok {
			bundles[i] = b
		} else {
			missing = append(missing, seg)
		}
	}
	rs.Attr(obs.AttrSegments, int64(n)).End()

	if len(missing) > 0 {
		mapped, err := s.mapSegments(ctx, jt, runner, query, missing)
		if err != nil {
			return nil, err
		}
		for i, seg := range rest {
			if bundles[i] == nil {
				bundles[i], mapped = mapped[0], mapped[1:]
				s.cache.Put(cacheKey{digest: seg.Digest(), schema: schema}, bundles[i])
			}
		}
	}

	fs := jt.Start(obs.KindFold, query).Attr(obs.AttrSegments, int64(len(rest)))
	sess, err := runner.Resume(base)
	if err != nil {
		fs.Tag("outcome", "error").End()
		return nil, err
	}
	for _, b := range bundles {
		if err := sess.Fold(b); err != nil {
			fs.Tag("outcome", "error").End()
			return nil, err
		}
	}
	fs.End()
	ff := jt.Start(obs.KindFormat, query)
	next := sess.Freeze()
	ff.Attr(obs.AttrRecords, int64(next.Result().NumResults)).End()
	ds.publish(schema, next)
	st.folded += len(rest)
	st.mapped += len(missing)
	st.cached += len(rest) - len(missing)
	return next, nil
}

// mapSegments runs one engine job over segs and returns each segment's
// bundles, in segs order. The run gets its own fork of the job trace,
// so its map attempts nest under the serve job — the serve-cache
// invariant can prove a warm job ran none.
func (s *Server) mapSegments(ctx context.Context, jt *obs.Trace, runner Runner, query string,
	segs []*mapreduce.Segment) ([]*Bundles, error) {
	et := jt.Fork()
	mapFn, err := runner.Mapper(cluster.JobSpec{Query: query}, et)
	if err != nil {
		return nil, err
	}
	// Reducers hand over bundles that point into the run buffers;
	// packBundles copies them out once the run is done.
	var mu sync.Mutex
	keys, vals := map[int][]string{}, map[int][][]byte{}
	collect := func(_ int, key string, values []mapreduce.Shuffled) error {
		mu.Lock()
		defer mu.Unlock()
		for _, v := range values {
			keys[v.MapperID] = append(keys[v.MapperID], key)
			vals[v.MapperID] = append(vals[v.MapperID], v.Value)
		}
		return nil
	}
	conf := s.cfg.Engine
	conf.Trace = et
	conf.Registry = s.reg
	job := &mapreduce.Job{Name: "serve-map/" + query, Map: mapFn, Reduce: collect, Conf: conf}
	if _, err := job.Start(ctx, segs).Wait(); err != nil {
		return nil, err
	}
	out := make([]*Bundles, len(segs))
	for i, seg := range segs {
		out[i] = packBundles(keys[seg.ID], vals[seg.ID]) // no groups: empty
	}
	return out, nil
}
