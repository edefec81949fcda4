package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sym"
)

func TestTreeEngineAgreesMax(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	q := maxQuery()
	for _, numSegs := range []int{1, 2, 7, 16} {
		lines := randMaxInput(r, 800, 5)
		segs := makeSegments(lines, numSegs)
		seq, err := RunSequential(q, segs)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := RunSympleOpts(q, segs, mapreduce.Config{NumReducers: 3}, SympleOptions{Tree: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Results, tree.Results) {
			t.Fatalf("segs=%d: tree composition differs from sequential", numSegs)
		}
	}
}

func TestTreeEngineAgreesSessions(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	q := sessionQuery()
	lines := make([]string, 300)
	ts := map[string]int64{}
	for i := range lines {
		k := fmt.Sprintf("u%d", r.Intn(3))
		ts[k] += int64(r.Intn(200))
		lines[i] = fmt.Sprintf("%s\t%d", k, ts[k])
	}
	segs := makeSegments(lines, 9)
	seq, err := RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := RunSympleOpts(q, segs, mapreduce.Config{NumReducers: 2}, SympleOptions{Tree: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Results, tree.Results) {
		t.Fatalf("tree differs:\nseq:  %v\ntree: %v", seq.Results, tree.Results)
	}
}

func TestTreeEngineWithRestarts(t *testing.T) {
	// Many summaries per group (cap 1 forces a restart per record):
	// the tree has real depth.
	q := maxQuery()
	q.Options = sym.Options{MaxLivePaths: 1, DisableMerging: true, MaxRunsPerRecord: 64}
	var lines []string
	for i := 0; i < 120; i++ {
		lines = append(lines, fmt.Sprintf("k\t%d", (i*31)%100))
	}
	segs := makeSegments(lines, 4)
	seq, err := RunSequential(maxQuery(), segs)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := RunSympleOpts(q, segs, mapreduce.Config{NumReducers: 1}, SympleOptions{Tree: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Results, tree.Results) {
		t.Fatal("tree composition differs under restarts")
	}
	if tree.Sym.Restarts == 0 {
		t.Fatal("expected restarts")
	}
}

func TestComposeTreeOddCounts(t *testing.T) {
	// The tree reduction must handle odd level sizes (carry the last
	// summary).
	newState := func() *maxState { return &maxState{Max: sym.NewSymInt(0)} }
	update := func(ctx *sym.Ctx, s *maxState, e int64) {
		if s.Max.Lt(ctx, e) {
			s.Max.Set(e)
		}
	}
	for _, n := range []int{1, 2, 3, 5, 7, 8} {
		var sums []*sym.Summary[*maxState]
		for c := 0; c < n; c++ {
			x := sym.NewExecutor(newState, update, sym.DefaultOptions())
			if err := x.Feed(int64(c * 10)); err != nil {
				t.Fatal(err)
			}
			s, err := x.Finish()
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, s...)
		}
		composed, err := sym.ComposeAllParallel(sums)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, err := composed.Apply(newState())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out.Max.Get(), int64((n-1)*10); got != want {
			t.Fatalf("n=%d: max %d, want %d", n, got, want)
		}
	}
	if _, err := sym.ComposeAllParallel[*maxState](nil); err == nil {
		t.Fatal("expected error for zero summaries")
	}
}
