package serve_test

import (
	"bytes"
	"context"
	"net"
	"sort"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/queries"
	"repro/internal/serve"
)

// recordingTransport is the in-process transport with a tap: it keeps
// a copy of every run the engine's map attempts publish.
type recordingTransport struct {
	mapreduce.Transport
	mu   sync.Mutex
	runs []mapreduce.Run
}

func (t *recordingTransport) Publish(r mapreduce.Run) error {
	c := r
	c.Seg = bytes.Clone(r.Seg)
	t.mu.Lock()
	t.runs = append(t.runs, c)
	t.mu.Unlock()
	return t.Transport.Publish(r)
}

// shuffledValues decodes published runs into each mapper's (segment's)
// per-key shuffled value.
func shuffledValues(t *testing.T, runs []mapreduce.Run) map[int]map[string][]byte {
	t.Helper()
	byPart := map[int][]mapreduce.Run{}
	for _, r := range runs {
		byPart[r.Part] = append(byPart[r.Part], r)
	}
	out := map[int]map[string][]byte{}
	for part, rs := range byPart {
		err := mapreduce.MergeEncodedRuns(part, rs, nil, func(key string, group []mapreduce.Shuffled) error {
			for _, row := range group {
				m := out[row.MapperID]
				if m == nil {
					m = map[string][]byte{}
					out[row.MapperID] = m
				}
				if _, dup := m[key]; dup {
					t.Errorf("mapper %d shuffled key %q twice", row.MapperID, key)
				}
				m[key] = bytes.Clone(row.Value)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameValues reports the first key where got and want differ.
func sameValues(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d keys, want %d", label, len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: key %q missing", label, k)
			return
		} else if !bytes.Equal(g, want[k]) {
			t.Errorf("%s: key %q bundle differs (%d vs %d bytes)", label, k, len(g), len(want[k]))
			return
		}
	}
}

// TestServeBundlesAreShuffleBytes pins the bundle-identity contract the
// summary cache rests on: for all 12 queries over the golden segments,
// the bundles a serve cold run caches for a segment, the values a
// worker publishes for the same segment under JobSpec{Query: id}, and
// the values the in-process engine shuffles for it are byte-identical,
// key by key.
func TestServeBundlesAreShuffleBytes(t *testing.T) {
	checkGoroutineLeaks(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	srv, addr := startServer(t, serve.Config{})
	for name, segs := range datasets {
		srv.AddDataset(name, segs)
	}
	c := dialClient(t, addr)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cluster.NewWorker().Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}()
	ep := cluster.Dial(ln.Addr().String())

	const reducers = 3
	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		submitWait(t, c, "acme", spec.ID, spec.Dataset) // cold: caches every segment

		rec := &recordingTransport{Transport: mapreduce.NewMemTransport()}
		if _, err := spec.Symple(segs, mapreduce.Config{NumReducers: reducers, Transport: rec}); err != nil {
			t.Fatal(err)
		}
		engine := shuffledValues(t, rec.runs)

		pool, err := cluster.NewPool(cluster.JobSpec{Query: spec.ID, NumReducers: reducers}, []cluster.Endpoint{ep})
		if err != nil {
			t.Fatal(err)
		}
		var workerRuns []mapreduce.Run
		for i, seg := range segs {
			out, err := pool.RunMap(ctx, i, 0, seg)
			if err != nil {
				t.Fatal(err)
			}
			workerRuns = append(workerRuns, out.Runs...)
		}
		pool.Close()
		worker := shuffledValues(t, workerRuns)

		keys := 0
		for _, seg := range segs {
			b, ok := srv.CachedBundles(spec.ID, seg)
			if !ok {
				t.Fatalf("%s: segment %d not cached after a cold run", spec.ID, seg.ID)
			}
			cached := make(map[string][]byte, b.Len())
			for i := range b.Len() {
				k, v := b.At(i)
				cached[k] = v
			}
			keys += len(cached)
			sameValues(t, spec.ID+" worker vs serve cache", worker[seg.ID], cached)
			sameValues(t, spec.ID+" engine vs serve cache", engine[seg.ID], cached)
		}
		if keys == 0 {
			t.Errorf("%s: no bundles compared", spec.ID)
		}
	}
}
