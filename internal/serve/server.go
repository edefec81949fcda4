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

// dataset is one named, append-only segment sequence.
type dataset struct {
	mu      sync.Mutex
	segs    []*mapreduce.Segment
	changed chan struct{} // closed and replaced on every append
}

// snapshot returns the current segments (shared slice prefix; segments
// are immutable) and a channel closed on the next append.
func (d *dataset) snapshot() ([]*mapreduce.Segment, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.segs[:len(d.segs):len(d.segs)], d.changed
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

// AddDataset publishes segs under name, replacing any previous dataset.
// The server hosts shallow copies whose IDs are the dataset positions
// (the fold order, and the mapper IDs cold runs key bundles by); the
// caller's segments are never modified, so one segment may be hosted
// in any number of datasets.
func (s *Server) AddDataset(name string, segs []*mapreduce.Segment) {
	d := &dataset{segs: make([]*mapreduce.Segment, len(segs)), changed: make(chan struct{})}
	for i, seg := range segs {
		cp := *seg
		cp.ID = i
		d.segs[i] = &cp
	}
	s.mu.Lock()
	s.datasets[name] = d
	s.mu.Unlock()
}

// AppendSegment appends one segment to a dataset and wakes its tail
// jobs. As in AddDataset, the server hosts a shallow copy whose ID is
// the segment's dataset position; seg itself is not modified.
func (s *Server) AppendSegment(name string, seg *mapreduce.Segment) error {
	s.mu.Lock()
	d := s.datasets[name]
	s.mu.Unlock()
	if d == nil {
		return fmt.Errorf("serve: unknown dataset %q", name)
	}
	cp := *seg
	d.mu.Lock()
	cp.ID = len(d.segs)
	d.segs = append(d.segs, &cp)
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

// FlushCache evicts the whole summary cache — the chaos
// eviction-mid-fold hook (cluster.ChaosServeEvict) and an operational
// escape hatch. In-flight folds are unaffected.
func (s *Server) FlushCache() { s.cache.Flush() }

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
	runner := Lookup(sub.Query)
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
	cached int // of those, served from the summary cache
	mapped int // of those, mapped fresh by this job
}

// runJob waits for admission, folds the dataset (incrementally, for
// tail jobs), and settles with a JobResult.
func (s *Server) runJob(ctx context.Context, fc *cluster.FrameConn, id uint64,
	sub cluster.JobSubmit, runner Runner, ds *dataset, p *pending) {
	jt := s.cfg.Trace.Fork()
	root := jt.StartJob("serve/" + sub.Query + "/" + sub.Dataset)
	root.Tag("tenant", sub.Tenant)
	st := &foldState{}
	settled := false
	settle := func(res Result, updates int, errMsg string) {
		if settled {
			return
		}
		settled = true
		root.Attr(obs.AttrSegments, int64(st.folded)).
			Attr(obs.AttrCachedSegments, int64(st.cached)).
			Attr(obs.AttrMappedSegments, int64(st.mapped))
		if errMsg != "" {
			root.Tag("outcome", errMsg)
		}
		root.End()
		switch errMsg {
		case "":
			s.reg.Counter(MetricJobsCompleted).Inc()
		case "cancelled":
			s.reg.Counter(MetricJobsCancelled).Inc()
		default:
			s.reg.Counter(MetricJobsFailed).Inc()
		}
		_ = fc.Write(cluster.FrameJobResult, cluster.EncodeJobResult(cluster.JobResult{
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
	defer s.admit.release(p)
	s.reg.Histogram(MetricQueueWaitNs).Observe(time.Since(t0).Nanoseconds())
	if ctx.Err() != nil {
		settle(Result{}, 0, "cancelled")
		return
	}

	sess, err := runner.NewSession()
	if err != nil {
		settle(Result{}, 0, err.Error())
		return
	}
	schema := runner.SchemaKey()

	segs, changed := ds.snapshot()
	if err := s.foldSegments(ctx, jt, sess, schema, sub.Query, segs, st); err != nil {
		settle(Result{}, 0, jobErr(ctx, err))
		return
	}
	res, err := sess.Result()
	if err != nil {
		settle(Result{}, 0, err.Error())
		return
	}
	if !sub.Tail {
		settle(res, 0, "")
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
		_ = fc.Write(cluster.FrameJobUpdate, cluster.EncodeJobUpdate(cluster.JobUpdate{
			ID: id, Seq: uint64(updates), Digest: r.Digest, NumResults: r.NumResults,
			Segments: st.folded, CacheHits: st.cached, MappedSegments: st.mapped,
		}))
	}
	emit(res)
	for {
		select {
		case <-ctx.Done():
			settle(res, updates, "cancelled")
			return
		case <-changed:
		}
		var segs []*mapreduce.Segment
		segs, changed = ds.snapshot()
		if len(segs)-st.folded < every {
			continue
		}
		if err := s.foldSegments(ctx, jt, sess, schema, sub.Query, segs[st.folded:], st); err != nil {
			settle(res, updates, jobErr(ctx, err))
			return
		}
		if res, err = sess.Result(); err != nil {
			settle(Result{}, updates, err.Error())
			return
		}
		emit(res)
	}
}

// jobErr classifies a fold error: a cancelled context settles the job
// as cancelled regardless of which layer surfaced it.
func jobErr(ctx context.Context, err error) string {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return "cancelled"
	}
	return err.Error()
}

// foldSegments folds segs (in dataset order) into the session: cached
// segments decode straight from the summary cache; the rest run one
// engine job (nested under the serve root as its own traced sub-job)
// whose reduce side collects each segment's per-key bundles.
func (s *Server) foldSegments(ctx context.Context, jt *obs.Trace, sess Session,
	schema, query string, segs []*mapreduce.Segment, st *foldState) error {
	if len(segs) == 0 {
		return nil
	}
	type pendSeg struct {
		seg     *mapreduce.Segment
		bundles map[string][]byte
		cached  bool
	}
	pend := make([]*pendSeg, len(segs))
	var missing []*mapreduce.Segment
	for i, seg := range segs {
		ps := &pendSeg{seg: seg}
		key := cacheKey{digest: segmentDigest(seg), schema: schema}
		if b, ok := s.cache.Get(key); ok {
			ps.bundles, ps.cached = b, true
		} else {
			missing = append(missing, seg)
		}
		pend[i] = ps
	}

	if len(missing) > 0 {
		// Cold segments: one engine run over exactly the uncached
		// segments. The run gets its own fork of the job trace, so its
		// map attempts nest under this serve job — the serve-cache
		// invariant can prove a warm job ran none.
		et := jt.Fork()
		mapFn, err := sess.Mapper(et)
		if err != nil {
			return err
		}
		var cmu sync.Mutex
		got := map[int]map[string][]byte{}
		collect := func(_ int, key string, values []mapreduce.Shuffled) error {
			cmu.Lock()
			defer cmu.Unlock()
			for _, v := range values {
				m := got[v.MapperID]
				if m == nil {
					m = map[string][]byte{}
					got[v.MapperID] = m
				}
				m[key] = v.Value
			}
			return nil
		}
		conf := s.cfg.Engine
		conf.Trace = et
		conf.Registry = s.reg
		job := &mapreduce.Job{Name: "serve-map/" + query, Map: mapFn, Reduce: collect, Conf: conf}
		if _, err := job.Start(ctx, missing).Wait(); err != nil {
			return err
		}
		for _, ps := range pend {
			if ps.cached {
				continue
			}
			b := got[ps.seg.ID]
			if b == nil {
				b = map[string][]byte{} // segment produced no groups
			}
			ps.bundles = b
			s.cache.Put(cacheKey{digest: segmentDigest(ps.seg), schema: schema}, b)
		}
	}

	fs := jt.Start(obs.KindFold, query).Attr(obs.AttrSegments, int64(len(segs)))
	for _, ps := range pend {
		if err := sess.Fold(ps.bundles); err != nil {
			fs.Tag("outcome", "error").End()
			return err
		}
	}
	fs.End()
	st.folded += len(segs)
	st.mapped += len(missing)
	st.cached += len(segs) - len(missing)
	return nil
}
