package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// tinyScale keeps the self-tests to a few seconds.
var tinyScale = scale{Records: 1600, Segments: 4}

// workerBin builds sympled once for the cluster-w2w tests.
func workerBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sympled")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/sympled")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sympled: %v\n%s", err, out)
	}
	return bin
}

func tinyRun(t *testing.T, workload string, trace bool, bin string, h hooks) (*report, error) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 0.01, trace: trace,
		outDir: t.TempDir(), workerBin: bin}
	return run(o, tinyScale, h)
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricEmitted runs every workload untraced and traced at tiny
// scale and checks each prints exactly the metrics BENCHMARK.json names,
// with their units, and that a traced run dumps readable spans.
func TestEveryMetricEmitted(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	bin := workerBin(t)
	for _, w := range bf.Workloads {
		if workloadByName(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := tinyRun(t, w.Name, trace, bin, hooks{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted < 12 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.Name, trace, rep.res.Correct, rep.res.Attempted, rep.res.Failed)
			}
			got := rep.res.Metrics
			for name, unit := range want[trace] {
				m, ok := got[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range got {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if trace {
				checkSpanDump(t, rep.prov.TraceFile)
			}
		}
	}
}

// checkSpanDump checks every line of a span dump decodes as an obs.Span
// and that benchmark umbrellas are among them.
func checkSpanDump(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	umbrellas := 0
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if isBench(&sp) && sp.Kind == obs.KindJob {
			umbrellas++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if umbrellas == 0 {
		t.Fatalf("%s: no job umbrellas", path)
	}
}

// TestPlantedWrongReferenceFailsRun plants a wrong sequential digest:
// the first job on it must abort the run as incorrect.
func TestPlantedWrongReferenceFailsRun(t *testing.T) {
	plant := hooks{afterSetup: func(r *runner, _ env) {
		id := r.order[0].ID
		want := r.refs[id]
		want.digest ^= 1
		r.refs[id] = want
	}}
	rep, err := tinyRun(t, "batch", false, "", plant)
	if err == nil || !isMismatch(err) || rep == nil || rep.res.Correct {
		t.Fatalf("planted wrong digest: err=%v report=%+v, want an incorrect run", err, rep)
	}
}

// TestCacheFlushTripsZeroMapAssertion flushes the summary cache before a
// serve-warm submission: that job maps segments, which must abort the
// run.
func TestCacheFlushTripsZeroMapAssertion(t *testing.T) {
	flush := hooks{beforeJob: func(e env, caller, pass, k int) {
		if caller == 0 && k == 3 {
			e.(*serveEnv).inst[0].srv.FlushCache()
		}
	}}
	rep, err := tinyRun(t, "serve-warm", false, "", flush)
	if err == nil || !strings.Contains(err.Error(), "zero map work") || rep == nil || rep.res.Correct {
		t.Fatalf("flushed cache: err=%v report=%+v, want the zero-map assertion to fail the run", err, rep)
	}
}

// TestAccountTrace checks self and dark time on a hand-built trace: an
// umbrella [0,100) holding a benchmark call span and a program job root
// [10,90) whose map attempt [20,60) and fold [50,80) overlap.
func TestAccountTrace(t *testing.T) {
	bench := map[string]string{benchTag: "1"}
	spans := []*obs.Span{
		{ID: 1, Kind: obs.KindJob, Start: 0, End: 100, Tags: bench, Attrs: map[string]int64{attrCaller: 0, attrPass: 1}},
		{ID: 2, Parent: 1, Kind: kindSymple, Start: 0, End: 100, Tags: bench},
		{ID: 3, Parent: 1, Kind: obs.KindJob, Start: 10, End: 90},
		{ID: 4, Parent: 3, Kind: obs.KindMapAttempt, Start: 20, End: 60},
		{ID: 5, Parent: 3, Kind: obs.KindFold, Start: 50, End: 80},
	}
	got := accountTrace(spans)[passKey{0, 1}]
	if got == nil {
		t.Fatal("no totals for the umbrella's pass")
	}
	if s := got.self[obs.KindJob]; s != 80-60 {
		t.Errorf("job self = %d, want 20", s)
	}
	if s := got.self[obs.KindMapAttempt]; s != 40 {
		t.Errorf("map_attempt self = %d, want 40", s)
	}
	if got.dark != 100-60 {
		t.Errorf("dark = %d, want 40 (umbrella minus the union of map_attempt and fold)", got.dark)
	}
	if got.mapWall != 40 {
		t.Errorf("map wall = %d, want 40", got.mapWall)
	}
}

// TestHDQuantile checks the Harrell–Davis estimator on samples whose
// quantiles are known by symmetry.
func TestHDQuantile(t *testing.T) {
	var vs []float64
	for i := 1; i <= 101; i++ {
		vs = append(vs, float64(i))
	}
	if got := hdQuantile(vs, 0.5); math.Abs(got-51) > 1e-9 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	if got := hdQuantile(vs, 0.9); math.Abs(got-91.2) > 0.5 {
		t.Errorf("p90 of 1..101 = %v, want about 91.2", got)
	}
	if got := hdQuantile([]float64{3}, 0.9); got != 3 {
		t.Errorf("p90 of one sample = %v, want 3", got)
	}
}

// TestPassGate runs three callers through the gate: they agree on every
// pass, and a caller quitting mid-run does not leave the others waiting
// for it.
func TestPassGate(t *testing.T) {
	for _, quitter := range []int{-1, 1} {
		g := newPassGate(3)
		passes := make([]int, 3)
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer g.leave()
				for pass := 0; g.next(pass < 5); pass++ {
					if c == quitter && pass == 2 {
						return
					}
					passes[c]++
				}
			}(c)
		}
		wg.Wait()
		for c, n := range passes {
			want := 5
			if c == quitter {
				want = 2
			}
			if n != want {
				t.Errorf("quitter %d: caller %d ran %d passes, want %d", quitter, c, n, want)
			}
		}
	}
}
