package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Units of every metric the benchmark prints; BENCHMARK.json lists the
// same names and units (the self-test holds the two together).
var endToEndUnits = map[string]string{
	"jobs_per_s":  "1/s",
	"job_p50_ms":  "ms",
	"job_p90_ms":  "ms",
	"ok_frac":     "frac",
	"setup_s":     "s",
	"rss_peak_mb": "MB",
}

var perLayerUnits = map[string]string{
	"sym.exec_ms":                        "ms",
	"sym.runs_per_record":                "ratio",
	"sym.memo_hit_frac":                  "frac",
	"sym.summaries":                      "count",
	"sym.restarts":                       "count",
	"trace.map_exec.self_ms":             "ms",
	"trace.map_parse.self_ms":            "ms",
	"mapreduce.map_wall_ms":              "ms",
	"mapreduce.map_cpu_ms":               "ms",
	"mapreduce.shuffle_bytes":            "bytes",
	"mapreduce.shuffle_records":          "count",
	"trace.spill_encode.self_ms":         "ms",
	"trace.seg_decode.self_ms":           "ms",
	"trace.merge.self_ms":                "ms",
	"mapreduce.reduce_wall_ms":           "ms",
	"mapreduce.reduce_cpu_ms":            "ms",
	"trace.compose.self_ms":              "ms",
	"trace.combine.self_ms":              "ms",
	"trace.reduce_group.self_ms":         "ms",
	"trace.dark_ms":                      "ms",
	"trace.fold.self_ms":                 "ms",
	"serve.accept_ms":                    "ms",
	"serve.queue_wait_ms":                "ms",
	"trace.queue_wait.self_ms":           "ms",
	"serve.cache_hit_frac":               "frac",
	"serve.mapped_segments_per_job":      "count",
	"serve.append_ms":                    "ms",
	"serve.cache_mb":                     "MB",
	"serve.cache_evictions":              "count",
	"cluster.coord_egress_mb_per_job":    "MB",
	"cluster.coord_ingress_mb_per_job":   "MB",
	"cluster.shuffle_ingress_kb_per_job": "KB",
	"cluster.pool_open_ms":               "ms",
	"trace.part_owner.self_ms":           "ms",
	"mapreduce.attempts_per_task":        "ratio",
	"mapreduce.spec_win_frac":            "frac",
	"data.gen_s":                         "s",
	"serve.add_dataset_ms":               "ms",
	"cluster.spawn_s":                    "s",
	"queries.sequential_ms":              "ms",
	"obs.trace_overhead_pct":             "%",
}

// selfKinds are the program span kinds whose self time is a per-layer
// metric.
var selfKinds = []string{
	obs.KindMapExec, obs.KindMapParse, obs.KindSpillEncode, obs.KindSegDecode,
	obs.KindMerge, obs.KindCompose, obs.KindCombine, obs.KindReduceGroup,
	obs.KindFold, obs.KindQueue, obs.KindPartOwner,
}

// aggregate turns one run's records into metrics.
type aggregate struct {
	r             *runner
	jobs          []jobRec
	passes        []passRec
	before, after serveSnap
	totals        map[passKey]*traceTotals
}

// okJobs returns the jobs that completed, from traced or untraced
// passes.
func (a *aggregate) okJobs(traced bool) []jobRec {
	var out []jobRec
	for _, j := range a.jobs {
		if j.err == nil && j.traced == traced {
			out = append(out, j)
		}
	}
	return out
}

// okLatencies returns the untraced completed jobs' latencies in ms.
func (a *aggregate) okLatencies() []float64 {
	var out []float64
	for _, j := range a.okJobs(false) {
		out = append(out, ms(j.out.lat))
	}
	return out
}

// queryMedians returns each query's median untraced latency in ms.
func (a *aggregate) queryMedians() map[string]float64 {
	lat := map[string][]float64{}
	for _, j := range a.okJobs(false) {
		lat[j.spec.ID] = append(lat[j.spec.ID], ms(j.out.lat))
	}
	out := map[string]float64{}
	for id, vs := range lat {
		out[id] = median(vs)
	}
	return out
}

// endToEnd fills the untraced run's metrics. Throughput is whole
// passes: the callers complete len(order) jobs each per median pass
// time, which a burst of load from outside the run moves less than the
// wall-clock total does.
func (a *aggregate) endToEnd(m map[string]metric, setupS, rssMB float64) {
	lat := a.okLatencies()
	var passSecs []float64
	for _, p := range a.passes {
		passSecs = append(passSecs, p.dur.Seconds())
	}
	perPass := float64(len(a.r.order)) * ratio(float64(len(lat)), float64(len(a.jobs)))
	put(m, endToEndUnits, "jobs_per_s", float64(a.r.wl.callers)*ratio(perPass, median(passSecs)))
	put(m, endToEndUnits, "job_p50_ms", hdQuantile(lat, 0.5))
	put(m, endToEndUnits, "job_p90_ms", hdQuantile(lat, 0.9))
	put(m, endToEndUnits, "ok_frac", ratio(float64(len(lat)), float64(len(a.jobs))))
	put(m, endToEndUnits, "setup_s", setupS)
	put(m, endToEndUnits, "rss_peak_mb", rssMB)
}

// perPass returns the median over untraced passes of f summed over the
// pass's completed jobs.
func (a *aggregate) perPass(f func(j jobRec) float64) float64 {
	sums := map[passKey]float64{}
	for _, p := range a.passes {
		if !p.traced {
			sums[passKey{p.caller, p.pass}] = 0
		}
	}
	for _, j := range a.okJobs(false) {
		sums[passKey{j.caller, j.pass}] += f(j)
	}
	var vs []float64
	for _, v := range sums {
		vs = append(vs, v)
	}
	return median(vs)
}

// perTracedPass returns the median over traced passes of f applied to
// the pass's trace totals.
func (a *aggregate) perTracedPass(f func(t *traceTotals) float64) float64 {
	var vs []float64
	for _, t := range a.totals {
		vs = append(vs, f(t))
	}
	return median(vs)
}

// jobMedian returns the median of f over completed untraced jobs for
// which ok holds.
func (a *aggregate) jobMedian(f func(j jobRec) (float64, bool)) float64 {
	var vs []float64
	for _, j := range a.okJobs(false) {
		if v, ok := f(j); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// jobMean returns the mean of f over completed untraced jobs.
func (a *aggregate) jobMean(f func(j jobRec) float64) float64 {
	js := a.okJobs(false)
	var sum float64
	for _, j := range js {
		sum += f(j)
	}
	return ratio(sum, float64(len(js)))
}

func (a *aggregate) untracedPasses() int {
	n := 0
	for _, p := range a.passes {
		if !p.traced {
			n++
		}
	}
	return n
}

// setupMedians are the per-step set-up times, median over set-ups.
type setupMedians struct{ gen, add, spawn float64 }

// perLayer fills the traced run's metrics. Counters and timings the
// program returns come from the untraced passes; trace.* come from the
// traced passes. Layers a workload does not exercise read 0.
func (a *aggregate) perLayer(m map[string]metric, sm setupMedians) {
	p := func(name string, v float64) { put(m, perLayerUnits, name, v) }
	metrics := func(j jobRec) *mapreduce.Metrics {
		if j.out.run != nil {
			return j.out.run.Metrics
		}
		return nil
	}
	hasRuns := false
	for _, j := range a.okJobs(false) {
		hasRuns = hasRuns || metrics(j) != nil
	}

	// Symbolic execution. The batch engine returns its SymStats; on
	// cluster workers and serve's cold maps they stay in the mapping
	// process, so exec time and summaries come from map_exec spans.
	var records, runs, hits, misses float64
	for _, j := range a.okJobs(false) {
		if j.out.run != nil {
			s := j.out.run.Sym
			records += float64(s.Records)
			runs += float64(s.Runs)
			hits += float64(s.MemoHits)
			misses += float64(s.MemoMisses)
		}
	}
	if records > 0 {
		p("sym.exec_ms", a.perPass(func(j jobRec) float64 { return ms(j.out.run.Sym.ExecWall) }))
		p("sym.summaries", a.perPass(func(j jobRec) float64 { return float64(j.out.run.Sym.Summaries) }))
	} else {
		p("sym.exec_ms", a.perTracedPass(func(t *traceTotals) float64 { return float64(t.self[obs.KindMapExec]) / 1e6 }))
		p("sym.summaries", a.perTracedPass(func(t *traceTotals) float64 { return float64(t.summaries) }))
	}
	p("sym.restarts", a.perPass(func(j jobRec) float64 {
		if j.out.run == nil {
			return 0
		}
		return float64(j.out.run.Sym.Restarts)
	}))
	p("sym.runs_per_record", ratio(runs, records))
	reg := a.regDelta()
	if hits+misses == 0 {
		hits, misses = float64(reg[core.MetricMemoHits]), float64(reg[core.MetricMemoMisses])
	}
	p("sym.memo_hit_frac", ratio(hits, hits+misses))

	// Map, shuffle and reduce.
	sumM := func(f func(*mapreduce.Metrics) float64) func(j jobRec) float64 {
		return func(j jobRec) float64 {
			if mm := metrics(j); mm != nil {
				return f(mm)
			}
			return 0
		}
	}
	var mapAttempts, redAttempts, tasks, specTasks, specWins float64
	if hasRuns {
		p("mapreduce.map_wall_ms", a.perPass(sumM(func(x *mapreduce.Metrics) float64 { return ms(x.MapWall) })))
		p("mapreduce.map_cpu_ms", a.perPass(sumM(func(x *mapreduce.Metrics) float64 { return ms(x.MapCPU) })))
		p("mapreduce.reduce_wall_ms", a.perPass(sumM(func(x *mapreduce.Metrics) float64 { return ms(x.ReduceWall) })))
		p("mapreduce.reduce_cpu_ms", a.perPass(sumM(func(x *mapreduce.Metrics) float64 { return ms(x.ReduceCPU) })))
		p("mapreduce.shuffle_bytes", a.perPass(sumM(func(x *mapreduce.Metrics) float64 { return float64(x.ShuffleBytes) })))
		p("mapreduce.shuffle_records", a.perPass(sumM(func(x *mapreduce.Metrics) float64 { return float64(x.ShuffleRecords) })))
		for _, j := range a.okJobs(false) {
			if x := metrics(j); x != nil {
				mapAttempts += float64(x.MapAttempts)
				redAttempts += float64(x.ReduceAttempts)
				tasks += float64(len(x.MapTasks) + len(x.ReduceTasks))
				specTasks += float64(x.SpeculativeTasks)
				specWins += float64(x.SpeculativeWins)
			}
		}
	} else {
		// Serve runs its engine internally: walls from the trace,
		// the rest from the registry the server was given.
		n := float64(max(a.untracedPasses(), 1))
		p("mapreduce.map_wall_ms", a.perTracedPass(func(t *traceTotals) float64 { return float64(t.mapWall) / 1e6 }))
		p("mapreduce.reduce_wall_ms", a.perTracedPass(func(t *traceTotals) float64 { return float64(t.reduceWall) / 1e6 }))
		p("mapreduce.map_cpu_ms", float64(reg[mapreduce.MetricMapTaskNS+".sum"])/1e6/n)
		p("mapreduce.reduce_cpu_ms", float64(reg[mapreduce.MetricReduceTaskNS+".sum"])/1e6/n)
		p("mapreduce.shuffle_bytes", float64(reg[mapreduce.MetricShuffleBytes])/n)
		p("mapreduce.shuffle_records", float64(reg[mapreduce.MetricShuffleRecords])/n)
		mapAttempts = float64(reg[mapreduce.MetricMapAttempts])
		redAttempts = float64(reg[mapreduce.MetricReduceAttempts])
		specTasks = float64(reg[mapreduce.MetricSpecTasks])
		specWins = float64(reg[mapreduce.MetricSpecWins])
		for _, j := range a.okJobs(false) {
			if r := j.out.res; r != nil && r.MappedSegments > 0 {
				tasks += float64(r.MappedSegments + numReducers)
			}
		}
	}
	p("mapreduce.attempts_per_task", ratio(mapAttempts+redAttempts, tasks))
	p("mapreduce.spec_win_frac", ratio(specWins, specTasks))

	// Trace self times and dark time, per traced pass.
	for _, k := range selfKinds {
		p(selfMetric(k), a.perTracedPass(func(t *traceTotals) float64 { return float64(t.self[k]) / 1e6 }))
	}
	p("trace.dark_ms", a.perTracedPass(func(t *traceTotals) float64 { return float64(t.dark) / 1e6 }))

	// Serve.
	p("serve.accept_ms", a.jobMedian(func(j jobRec) (float64, bool) { return ms(j.out.accept), j.out.res != nil }))
	p("serve.append_ms", a.jobMedian(func(j jobRec) (float64, bool) { return ms(j.out.appendD), j.out.appendD > 0 }))
	p("serve.queue_wait_ms", ratio(float64(reg[serve.MetricQueueWaitNs+".sum"]), float64(reg[serve.MetricQueueWaitNs+".count"]))/1e6)
	p("serve.mapped_segments_per_job", a.jobMean(func(j jobRec) float64 {
		if j.out.res == nil {
			return 0
		}
		return float64(j.out.res.MappedSegments)
	}))
	dh := a.after.cache.Hits - a.before.cache.Hits
	dm := a.after.cache.Misses - a.before.cache.Misses
	p("serve.cache_hit_frac", ratio(float64(dh), float64(dh+dm)))
	p("serve.cache_mb", float64(a.after.cache.Bytes)/1e6)
	p("serve.cache_evictions", float64(a.after.cache.Evictions-a.before.cache.Evictions))

	// Cluster.
	p("cluster.coord_egress_mb_per_job", a.jobMean(func(j jobRec) float64 { return float64(j.out.pool.ConnEgressBytes) / 1e6 }))
	p("cluster.coord_ingress_mb_per_job", a.jobMean(func(j jobRec) float64 { return float64(j.out.pool.ConnIngressBytes) / 1e6 }))
	p("cluster.shuffle_ingress_kb_per_job", a.jobMean(func(j jobRec) float64 { return float64(j.out.pool.ShuffleIngressBytes) / 1e3 }))
	p("cluster.pool_open_ms", a.jobMedian(func(j jobRec) (float64, bool) { return ms(j.out.poolOpen), j.out.poolOpen > 0 }))

	// Set-up, reference and tracing overhead.
	p("data.gen_s", sm.gen)
	p("serve.add_dataset_ms", sm.add)
	p("cluster.spawn_s", sm.spawn)
	p("queries.sequential_ms", ms(a.r.seqDur))
	p("obs.trace_overhead_pct", a.traceOverheadPct())
}

// traceOverheadPct compares the median traced pass with the median
// untraced one.
func (a *aggregate) traceOverheadPct() float64 {
	var secs [2][]float64
	for _, p := range a.passes {
		i := 0
		if p.traced {
			i = 1
		}
		secs[i] = append(secs[i], p.dur.Seconds())
	}
	plain := median(secs[0])
	if plain == 0 {
		return 0
	}
	return (median(secs[1])/plain - 1) * 100
}

// regDelta is the serve registry's change over the measured region.
func (a *aggregate) regDelta() map[string]int64 {
	d := map[string]int64{}
	for k, v := range a.after.reg {
		d[k] = v - a.before.reg[k]
	}
	return d
}

func put(m map[string]metric, units map[string]string, name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// peakRSSMB returns the peak resident set of this process plus that of
// every live child process (the cluster workers), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	var kb float64
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		kb = float64(ru.Maxrss) // kilobytes on Linux
	}
	for _, pid := range childPIDs() {
		kb += statusKB(strconv.Itoa(pid), "VmHWM:")
	}
	return kb / 1024
}

// childPIDs lists this process's children from /proc.
func childPIDs() []int {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var pids []int
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, s := range strings.Fields(string(b)) {
			if pid, err := strconv.Atoi(s); err == nil {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// statusKB reads one kB-valued field of /proc/<pid>/status.
func statusKB(pid, field string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
