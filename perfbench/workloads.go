package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

// numReducers is the reduce-task count of every engine run, as in
// `symple` and `sympled -serve`.
const numReducers = 4

// numWorkers is the worker subprocess count of cluster-w2w.
const numWorkers = 2

// serveCallers is the tenant count of the serve workloads: one client
// goroutine and connection each, no more than the 2-core hosts the
// benchmark was sized on can run at once.
const serveCallers = 2

// workload is one named traffic mix. host sets up everything a run
// needs beyond corpus generation: servers and their warm caches, worker
// processes and their segment caches, or one untimed warm-up pass.
type workload struct {
	name    string
	callers int
	fresh   bool // needs serve-append's fresh segments
	host    func(r *runner, c *corpora, tr *obs.Trace) (env, setupInfo, error)
}

var workloads = []*workload{
	{name: "batch", callers: 1, host: hostBatch},
	{name: "serve-warm", callers: serveCallers, host: hostServeWarm},
	{name: "serve-append", callers: serveCallers, fresh: true, host: hostServeAppend},
	{name: "cluster-w2w", callers: 1, host: hostCluster},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupInfo times the set-up steps a per-layer metric names.
type setupInfo struct {
	addDataset time.Duration // serve: AddDataset of the four corpora
	spawn      time.Duration // cluster: SpawnWorkers
}

// jobOut is what one job reports.
type jobOut struct {
	lat      time.Duration      // call-to-result latency
	run      *queries.Run       // batch, cluster-w2w
	res      *cluster.JobResult // serve-*
	accept   time.Duration      // serve: Submit until the accept frame
	appendD  time.Duration      // serve-append: AppendSegment
	poolOpen time.Duration      // cluster-w2w: NewPool
	pool     cluster.PoolStats  // cluster-w2w: this job's pool counters
	procs    map[string]int     // cluster-w2w: worker GOMAXPROCS
	// check, when set, is a correctness check deferred until after the
	// timed region (serve-append's per-job sequential reference).
	check func() error
}

// env is a set-up workload.
type env interface {
	// job runs one query for caller. tr is the job umbrella's trace
	// fork, nil on untraced passes.
	job(caller, pass, k int, spec *queries.Spec, tr *obs.Trace) (jobOut, error)
	close()
}

// mismatchError is a wrong answer or a broken workload invariant. It
// aborts the run; it is never counted as a failed job.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func mismatchf(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

func isMismatch(err error) bool {
	var m *mismatchError
	return errors.As(err, &m)
}

func tenantName(caller int) string { return fmt.Sprintf("t%d", caller) }

// --- batch: in-process Spec.Symple ---

type batchEnv struct {
	r *runner
	c *corpora
}

func hostBatch(r *runner, c *corpora, tr *obs.Trace) (env, setupInfo, error) {
	e := &batchEnv{r: r, c: c}
	for _, spec := range r.order { // warm-up pass
		if _, err := e.job(0, -1, 0, spec, nil); err != nil {
			return nil, setupInfo{}, fmt.Errorf("warm-up %s: %w", spec.ID, err)
		}
	}
	return e, setupInfo{}, nil
}

func (e *batchEnv) close() {}

func (e *batchEnv) job(_, _, _ int, spec *queries.Spec, tr *obs.Trace) (jobOut, error) {
	conf := mapreduce.Config{NumReducers: numReducers, Trace: tr.Fork()}
	sp := startBench(tr, kindSymple, spec.ID)
	t0 := time.Now()
	run, err := spec.Symple(e.c.segs[spec.Dataset], conf)
	lat := time.Since(t0)
	sp.End()
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{lat: lat, run: run}, e.r.checkRef(spec, run.Digest, run.NumResults)
}

// --- cluster-w2w: spawned sympled workers, one pool per job ---

type clusterEnv struct {
	r   *runner
	c   *corpora
	eps []cluster.Endpoint
}

func hostCluster(r *runner, c *corpora, tr *obs.Trace) (env, setupInfo, error) {
	bin, err := cluster.ResolveWorkerBinary(r.opt.workerBin)
	if err != nil {
		return nil, setupInfo{}, err
	}
	sp := startBench(tr, kindSpawn, bin)
	t0 := time.Now()
	eps, err := cluster.SpawnWorkers(bin, numWorkers, cluster.SpawnOptions{})
	info := setupInfo{spawn: time.Since(t0)}
	sp.End()
	if err != nil {
		return nil, info, err
	}
	e := &clusterEnv{r: r, c: c, eps: eps}
	// One untimed pass ships every segment and fills the workers'
	// segment caches.
	for _, spec := range r.order {
		if _, err := e.job(0, -1, 0, spec, nil); err != nil {
			e.close()
			return nil, info, fmt.Errorf("warm-up %s: %w", spec.ID, err)
		}
	}
	return e, info, nil
}

func (e *clusterEnv) close() {
	for _, ep := range e.eps {
		_ = ep.Close() // a worker that ignored shutdown was killed; nothing to report
	}
}

// job runs one query the way `symple -workers 2 -w2w` does: a pool
// opened for the job, speculation and retries on, maps and reduces on
// the workers.
func (e *clusterEnv) job(_, _, _ int, spec *queries.Spec, tr *obs.Trace) (jobOut, error) {
	conf := mapreduce.Config{
		NumReducers:     numReducers,
		Parallelism:     max(numWorkers, runtime.GOMAXPROCS(0)),
		MaxAttempts:     4,
		Speculation:     true,
		RetryBackoff:    10 * time.Millisecond,
		MaxRetryBackoff: 250 * time.Millisecond,
		Trace:           tr.Fork(),
	}
	opt := core.SympleOptions{}
	t0 := time.Now()
	sp := startBench(tr, kindNewPool, spec.ID)
	pool, err := cluster.NewPool(queries.ClusterSpec(spec.ID, conf, opt), e.eps, cluster.WithW2W())
	sp.End()
	out := jobOut{poolOpen: time.Since(t0)}
	if err != nil {
		return out, err
	}
	conf.RemoteMap, conf.RemoteReduce = pool, pool
	sp = startBench(tr, kindSymple, spec.ID)
	run, err := spec.SympleOpts(e.c.segs[spec.Dataset], conf, opt)
	sp.End()
	out.pool, out.procs = pool.Stats(), pool.WorkerProcs()
	cerr := pool.Close()
	out.lat = time.Since(t0)
	if err != nil {
		return out, err
	}
	if cerr != nil {
		return out, fmt.Errorf("closing pool: %w", cerr)
	}
	out.run = run
	return out, e.r.checkRef(spec, run.Digest, run.NumResults)
}

// --- serve-warm and serve-append: serve.Server + serve.Client ---

// serveInst is one hosted server with a client connection per caller.
type serveInst struct {
	srv     *serve.Server
	reg     *obs.Registry
	done    chan error
	clients []*serve.Client
}

type serveEnv struct {
	r       *runner
	c       *corpora
	callers int
	// inst[0] serves untraced passes; inst[1], present only on traced
	// runs, has the trace attached and serves the traced passes.
	inst   []*serveInst
	append bool
	// live[caller] maps a live dataset's name to the passes that
	// appended its segments since it last restarted (freshSegment
	// rebuilds them from that). Only that caller's goroutine touches
	// its map.
	live []map[string][]int
}

func hostServeWarm(r *runner, c *corpora, tr *obs.Trace) (env, setupInfo, error) {
	return hostServe(r, c, tr, false)
}

func hostServeAppend(r *runner, c *corpora, tr *obs.Trace) (env, setupInfo, error) {
	return hostServe(r, c, tr, true)
}

func hostServe(r *runner, c *corpora, tr *obs.Trace, appendMode bool) (env, setupInfo, error) {
	e := &serveEnv{r: r, c: c, callers: serveCallers, append: appendMode}
	var info setupInfo
	n := 1
	if tr != nil {
		n = 2
	}
	for i := 0; i < n; i++ {
		var t *obs.Trace
		if i == 1 {
			t = tr
		}
		inst, addDur, err := e.newInst(t)
		if err != nil {
			e.close()
			return nil, info, err
		}
		if i == 0 {
			info.addDataset = addDur
		}
		e.inst = append(e.inst, inst)
	}
	for i := 0; i < e.callers; i++ {
		e.live = append(e.live, map[string][]int{})
	}
	return e, info, nil
}

// newInst starts a server hosting the four corpora on loopback, dials
// one client per caller, and fills the summary cache with one pass.
func (e *serveEnv) newInst(tr *obs.Trace) (*serveInst, time.Duration, error) {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		Engine:   mapreduce.Config{NumReducers: numReducers},
		Trace:    tr,
		Registry: reg,
	})
	inst := &serveInst{srv: srv, reg: reg, done: make(chan error, 1)}
	var addDur time.Duration
	for _, name := range corpusNames {
		segs := copySegments(e.c.segs[name])
		sp := startBench(tr, kindAddDataset, name)
		t0 := time.Now()
		srv.AddDataset(name, segs)
		addDur += time.Since(t0)
		sp.End()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("serve listen: %w", err)
	}
	go func() { inst.done <- srv.Serve(ln) }()
	for i := 0; i < e.callers; i++ {
		cl, err := serve.Dial(ln.Addr().String())
		if err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("serve dial: %w", err)
		}
		inst.clients = append(inst.clients, cl)
	}
	for _, spec := range e.r.order { // cache fill
		res, _, err := submitWait(inst.clients[0], tenantName(0), spec.ID, spec.Dataset, nil)
		if err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("cache fill %s: %w", spec.ID, err)
		}
		if err := e.r.checkRef(spec, res.Digest, res.NumResults); err != nil {
			inst.close()
			return nil, 0, err
		}
	}
	return inst, addDur, nil
}

func (inst *serveInst) close() {
	for _, cl := range inst.clients {
		_ = cl.Close() // the server side settles the connection's jobs
	}
	inst.srv.Close()
	if err := <-inst.done; err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
}

func (e *serveEnv) close() {
	for _, inst := range e.inst {
		inst.close()
	}
}

// appendCycle is how many appends a live dataset takes before it
// restarts from the hosted prefix, whose summaries are cached. Restarts
// are staggered across queries by pass, so every pass folds the same
// mix of dataset lengths.
const appendCycle = 3

// liveDataset names caller's live copy of spec's corpus on server inst.
// Each query gets its own: the summary cache is keyed by query schema,
// so a segment appended for one query is new work for every other.
func liveDataset(inst, caller int, spec *queries.Spec) string {
	return fmt.Sprintf("live-%d-%s-%s", inst, tenantName(caller), spec.ID)
}

func (e *serveEnv) job(caller, pass, k int, spec *queries.Spec, tr *obs.Trace) (jobOut, error) {
	idx := 0
	if tr != nil {
		idx = 1
	}
	inst := e.inst[idx]
	var out jobOut
	dataset := spec.Dataset
	var appended []int
	if e.append {
		dataset = liveDataset(idx, caller, spec)
		live, ok := e.live[caller][dataset]
		if !ok || (pass+k)%appendCycle == 0 {
			// AddDataset rewrites Segment.ID, so each restart gets
			// headers of its own.
			inst.srv.AddDataset(dataset, copySegments(e.c.segs[spec.Dataset]))
			live = nil
		}
		seg := e.c.freshSegment(spec.Dataset, len(live), caller, pass, e.callers)
		sp := startBench(tr, kindAppend, dataset)
		t0 := time.Now()
		err := inst.srv.AppendSegment(dataset, seg)
		out.appendD = time.Since(t0)
		sp.End()
		if err != nil {
			return out, err
		}
		appended = append(live, pass)
		e.live[caller][dataset] = appended
	}
	res, accept, err := submitWait(inst.clients[caller], tenantName(caller), spec.ID, dataset, tr)
	out.lat, out.accept = res.lat, accept
	if err != nil {
		return out, err
	}
	out.res = &res.JobResult
	if !e.append {
		if res.MappedSegments != 0 || res.CacheHits != res.Segments {
			return out, mismatchf("serve-warm %s: mapped %d of %d segments (%d cached), want zero map work",
				spec.ID, res.MappedSegments, res.Segments, res.CacheHits)
		}
		return out, e.r.checkRef(spec, res.Digest, res.NumResults)
	}
	if res.MappedSegments != 1 {
		return out, mismatchf("serve-append %s: mapped %d of %d segments, want exactly the appended one",
			spec.ID, res.MappedSegments, res.Segments)
	}
	out.check = func() error {
		want := append([]*mapreduce.Segment(nil), e.c.segs[spec.Dataset]...)
		for k, p := range appended {
			want = append(want, e.c.freshSegment(spec.Dataset, k, caller, p, e.callers))
		}
		seq, err := spec.Sequential(want)
		if err != nil {
			return fmt.Errorf("sequential reference %s: %w", spec.ID, err)
		}
		if seq.Digest != res.Digest || seq.NumResults != res.NumResults {
			return mismatchf("serve-append %s over %d segments: digest %016x (%d results), sequential %016x (%d)",
				spec.ID, len(want), res.Digest, res.NumResults, seq.Digest, seq.NumResults)
		}
		return nil
	}
	return out, nil
}

// timedResult is a settled serve job and its Submit→Wait latency.
type timedResult struct {
	cluster.JobResult
	lat time.Duration
}

// submitWait submits one job and waits for its result. The latency runs
// from Submit until Wait returns; accept is the Submit call alone.
func submitWait(cl *serve.Client, tenant, query, dataset string, tr *obs.Trace) (timedResult, time.Duration, error) {
	t0 := time.Now()
	sp := startBench(tr, kindSubmit, query)
	j, err := cl.Submit(cluster.JobSubmit{Tenant: tenant, Query: query, Dataset: dataset})
	sp.End()
	accept := time.Since(t0)
	if err != nil {
		return timedResult{lat: accept}, accept, err
	}
	sp = startBench(tr, kindWait, query)
	res, err := j.Wait()
	sp.End()
	return timedResult{JobResult: res, lat: time.Since(t0)}, accept, err
}
