package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median. Only the last set-up is measured.
const setupReps = 3

// minJobs is the sample size at which job_p90_ms has 10 samples beyond
// it; smaller runs get a warning.
const minJobs = 100

// hooks let the self-tests break a run on purpose.
type hooks struct {
	afterSetup func(r *runner, e env)
	beforeJob  func(e env, caller, pass, k int)
}

// ref is a query's sequential-engine answer on a hosted corpus.
type ref struct {
	digest uint64
	n      int
}

// runner holds one run's fixed inputs.
type runner struct {
	opt    options
	wl     *workload
	order  []*queries.Spec
	refs   map[string]ref
	seqDur time.Duration // the 12 reference runs, summed
}

func (r *runner) checkRef(spec *queries.Spec, digest uint64, n int) error {
	want, ok := r.refs[spec.ID]
	if !ok {
		return fmt.Errorf("no sequential reference for %s", spec.ID)
	}
	if digest != want.digest || n != want.n {
		return mismatchf("%s %s: digest %016x (%d results), sequential %016x (%d)",
			r.wl.name, spec.ID, digest, n, want.digest, want.n)
	}
	return nil
}

// computeRefs runs the sequential engine once per query on the hosted
// corpora.
func (r *runner) computeRefs(c *corpora) error {
	r.refs = map[string]ref{}
	for _, spec := range r.order {
		t0 := time.Now()
		seq, err := spec.Sequential(c.segs[spec.Dataset])
		r.seqDur += time.Since(t0)
		if err != nil {
			return fmt.Errorf("sequential reference %s: %w", spec.ID, err)
		}
		r.refs[spec.ID] = ref{seq.Digest, seq.NumResults}
	}
	return nil
}

// jobRec is one timed job.
type jobRec struct {
	caller, pass int
	traced       bool
	spec         *queries.Spec
	out          jobOut
	err          error
}

// passRec is one caller's completed pass.
type passRec struct {
	caller, pass int
	traced       bool
	dur          time.Duration
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records what a result was measured on.
type provenance struct {
	Workload         string   `json:"workload"`
	Seed             int64    `json:"seed"`
	Seconds          float64  `json:"seconds"`
	Trace            bool     `json:"trace"`
	NumCPU           int      `json:"nproc"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	WorkerGOMAXPROCS []int    `json:"worker_gomaxprocs,omitempty"`
	GoVersion        string   `json:"go_version"`
	Commit           string   `json:"commit"`
	CorpusRecords    int64    `json:"corpus_records"`
	CorpusBytes      int64    `json:"corpus_bytes"`
	Segments         int      `json:"segments_per_corpus"`
	QueryOrder       []string `json:"query_order"`
	Callers          int      `json:"callers"`
	Passes           int      `json:"passes"`
	TracedPasses     int      `json:"traced_passes,omitempty"`
	JobsCompleted    int      `json:"jobs_completed"`
	LatencySamples   int      `json:"latency_samples"`
	// QueryP50Ms is each query's median untraced latency.
	QueryP50Ms      map[string]float64 `json:"query_p50_ms"`
	MeasuredSeconds float64            `json:"measured_seconds"`
	PassSeconds     []float64          `json:"pass_seconds"`
	SetupSeconds    []float64          `json:"setup_seconds"`
	TraceFile       string             `json:"trace_file,omitempty"`
	Warnings        []string           `json:"warnings,omitempty"`
}

type report struct {
	res  result
	prov provenance
}

// run executes one benchmark run. It returns a nil report when the run
// could not be measured at all; a report with Correct false (and an
// error) when an answer was wrong.
func run(o options, sc scale, h hooks) (*report, error) {
	wl := workloadByName(o.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	queries.RegisterClusterJobs() // links every query's serve runner
	r := &runner{opt: o, wl: wl, order: queryOrder(o.seed)}
	rep := &report{prov: provenance{
		Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Segments: sc.Segments,
		Callers: wl.callers,
	}}
	for _, s := range r.order {
		rep.prov.QueryOrder = append(rep.prov.QueryOrder, s.ID)
	}
	wrong := func(err error, attempted int) (*report, error) {
		rep.res = result{Correct: false, Attempted: max(attempted, 1), Metrics: map[string]metric{}}
		return rep, err
	}

	var mem *obs.MemSink
	var tr *obs.Trace
	if o.trace {
		mem = obs.NewMemSink()
		tr = obs.NewTrace(mem)
	}
	var e env
	var c *corpora
	var setupS, genS, addMs, spawnS []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
			e, c = nil, nil
		}
		// Collect the previous set-up, so every set-up starts from the
		// same heap.
		debug.FreeOSMemory()
		var st *obs.Trace
		if i == setupReps-1 {
			st = tr
		}
		t0 := time.Now()
		sp := startBench(st, kindGen, wl.name)
		c = genCorpora(sc, o.seed, wl.fresh)
		sp.End()
		gen := time.Since(t0)
		if r.refs == nil { // outside the set-up time
			if err := r.computeRefs(c); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		ne, info, err := wl.host(r, c, st)
		if err != nil {
			if isMismatch(err) {
				return wrong(err, 1)
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e = ne
		setupS = append(setupS, (gen + time.Since(t1)).Seconds())
		genS = append(genS, gen.Seconds())
		addMs = append(addMs, ms(info.addDataset))
		spawnS = append(spawnS, info.spawn.Seconds())
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	rep.prov.SetupSeconds = setupS
	rep.prov.CorpusRecords, rep.prov.CorpusBytes = c.stats()
	if h.afterSetup != nil {
		h.afterSetup(r, e)
	}

	// The measured region: whole passes per caller until the clock runs
	// out (a traced run needs at least one untraced and one traced pass).
	var before serveSnap
	if se, ok := e.(*serveEnv); ok {
		before = snapServe(se.inst[0])
	}
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	limit := time.Duration(o.seconds * float64(time.Second))
	jobs := make([][]jobRec, wl.callers)
	passes := make([][]passRec, wl.callers)
	fatal := make([]error, wl.callers)
	var abort atomic.Bool
	var gate *passGate
	if o.trace {
		gate = newPassGate(wl.callers)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < wl.callers; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			defer gate.leave()
			for pass := 0; gate.next(pass < minPasses || time.Since(start) < limit); pass++ {
				traced := o.trace && pass%2 == 1
				p0 := time.Now()
				for k := range r.order {
					if abort.Load() {
						return
					}
					// Callers start half a mix apart, so two tenants
					// rarely run the same query at once.
					spec := r.order[(k+cl*len(r.order)/wl.callers)%len(r.order)]
					if h.beforeJob != nil {
						h.beforeJob(e, cl, pass, k)
					}
					var jt *obs.Trace
					var um *obs.ActiveSpan
					if traced {
						jt, um = startUmbrella(tr, "bench/"+wl.name+"/"+spec.ID, cl, pass)
					}
					out, err := e.job(cl, pass, k, spec, jt)
					um.End()
					if err != nil && isMismatch(err) {
						fatal[cl] = err
						abort.Store(true)
						return
					}
					jobs[cl] = append(jobs[cl], jobRec{caller: cl, pass: pass, traced: traced, spec: spec, out: out, err: err})
				}
				passes[cl] = append(passes[cl], passRec{caller: cl, pass: pass, traced: traced, dur: time.Since(p0)})
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(start)
	rep.prov.MeasuredSeconds = wall.Seconds()

	rss := peakRSSMB()
	var after serveSnap
	if se, ok := e.(*serveEnv); ok {
		after = snapServe(se.inst[0])
	}
	var all []jobRec
	for _, js := range jobs {
		all = append(all, js...)
	}
	var allPasses []passRec
	for _, ps := range passes {
		allPasses = append(allPasses, ps...)
	}
	for _, err := range fatal {
		if err != nil {
			if isMismatch(err) {
				return wrong(err, len(all)+1) // the aborting job was never recorded
			}
			return nil, err
		}
	}
	if err := runChecks(all); err != nil {
		if isMismatch(err) {
			return wrong(err, len(all))
		}
		return nil, err
	}

	a := &aggregate{r: r, jobs: all, passes: allPasses, before: before, after: after}
	failed := 0
	for _, j := range all {
		if j.err != nil {
			failed++
		}
	}
	rep.res = result{Correct: true, Attempted: len(all), Failed: failed, Metrics: map[string]metric{}}
	rep.prov.JobsCompleted = len(all) - failed
	rep.prov.LatencySamples = len(a.okLatencies())
	rep.prov.QueryP50Ms = a.queryMedians()
	for _, p := range allPasses {
		rep.prov.PassSeconds = append(rep.prov.PassSeconds, p.dur.Seconds())
		rep.prov.Passes++
		if p.traced {
			rep.prov.TracedPasses++
		}
	}
	for _, j := range all {
		if j.out.procs != nil && rep.prov.WorkerGOMAXPROCS == nil {
			for _, p := range j.out.procs {
				rep.prov.WorkerGOMAXPROCS = append(rep.prov.WorkerGOMAXPROCS, p)
			}
			sort.Ints(rep.prov.WorkerGOMAXPROCS)
		}
	}
	if wl.name == "cluster-w2w" && numWorkers+1 > runtime.NumCPU() {
		rep.prov.Warnings = append(rep.prov.Warnings, fmt.Sprintf(
			"%d workers + 1 coordinator > %d cores: cluster numbers measure time-sharing, not scale-out",
			numWorkers, runtime.NumCPU()))
	}
	if !o.trace && rep.prov.LatencySamples < minJobs {
		rep.prov.Warnings = append(rep.prov.Warnings, fmt.Sprintf(
			"%d latency samples < %d: job_p90_ms has fewer than 10 samples beyond it", rep.prov.LatencySamples, minJobs))
	}
	if failed > 0 {
		rep.prov.Warnings = append(rep.prov.Warnings, fmt.Sprintf("%d of %d jobs failed; first: %v", failed, len(all), firstErr(all)))
	}

	if !o.trace {
		a.endToEnd(rep.res.Metrics, median(setupS), rss)
	} else {
		spans := mem.Spans()
		rep.prov.TraceFile = outPath(o, "trace", ".jsonl")
		if err := writeJSONL(rep.prov.TraceFile, spans); err != nil {
			return nil, err
		}
		a.totals = accountTrace(spans)
		a.perLayer(rep.res.Metrics, setupMedians{gen: median(genS), add: median(addMs), spawn: median(spawnS)})
	}
	if err := writeResult(outPath(o, "result", ".json"), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// passGate lines callers up at pass boundaries on traced runs: the
// serve workloads switch servers by pass, so all callers must run a
// pass traced, or untraced, together. A nil gate lets callers run free.
type passGate struct {
	mu      sync.Mutex
	cond    sync.Cond
	callers int // callers still running
	waiting int
	gen     int
	more    bool // the decision released at the last boundary
	view    bool // the latest waiting caller's view
}

func newPassGate(callers int) *passGate {
	g := &passGate{callers: callers}
	g.cond.L = &g.mu
	return g
}

// next reports whether the callers start another pass. more is this
// caller's view; the last caller to arrive decides for all.
func (g *passGate) next(more bool) bool {
	if g == nil {
		return more
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waiting++
	g.view = more
	if g.waiting >= g.callers {
		g.release(more)
		return more
	}
	for gen := g.gen; gen == g.gen; {
		g.cond.Wait()
	}
	return g.more
}

func (g *passGate) release(more bool) {
	g.more, g.waiting = more, 0
	g.gen++
	g.cond.Broadcast()
}

// leave retires a caller, so the others do not wait for it at the gate
// when it quit mid-run.
func (g *passGate) leave() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.callers--
	if g.waiting > 0 && g.waiting >= g.callers {
		g.release(g.view)
	}
}

// runChecks runs the jobs' deferred correctness checks, outside the
// measured region, on one goroutine per core. It returns the first
// failure.
func runChecks(js []jobRec) error {
	checks := make(chan func() error)
	errs := make(chan error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for check := range checks {
				if err := check(); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, j := range js {
		if j.err == nil && j.out.check != nil {
			checks <- j.out.check
		}
	}
	close(checks)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func firstErr(js []jobRec) error {
	for _, j := range js {
		if j.err != nil {
			return j.err
		}
	}
	return nil
}

// serveSnap is a server's cache and registry counters at one instant.
type serveSnap struct {
	cache serve.CacheStats
	reg   map[string]int64
}

func snapServe(inst *serveInst) serveSnap {
	return serveSnap{cache: inst.srv.CacheStats(), reg: inst.reg.Snapshot()}
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

func writeResult(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"result": rep.res, "provenance": rep.prov}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
