package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// Segment residency tests: the coordinator's record of which segments a
// worker holds lives on the endpoint, so it survives connection
// retirement and pool turnover; the worker's cache is an LRU; and the
// hello exchange is bounded by its context.

// bigSegment returns a segment whose payload dwarfs an assignment's
// fixed fields, so egress tells a payload ship from a digest-only one.
func bigSegment(id int) (*mapreduce.Segment, int64) {
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte('a' + (i+id)%4)
	}
	return &mapreduce.Segment{ID: id, Records: [][]byte{big}}, int64(len(big))
}

// mapEgress runs one attempt and returns the coordinator bytes it wrote.
func mapEgress(t *testing.T, p *Pool, task, attempt int, seg *mapreduce.Segment) int64 {
	t.Helper()
	e0 := p.Stats().ConnEgressBytes
	if _, err := p.RunMap(context.Background(), task, attempt, seg); err != nil {
		t.Fatalf("task %d attempt %d: %v", task, attempt, err)
	}
	return p.Stats().ConnEgressBytes - e0
}

// TestWarmPoolShipsDigestOnly: a second pool over endpoints a first
// pool already warmed places the task on the worker holding its
// segment — even though the cold worker comes first in the pool's
// endpoint order — and ships only the digest.
func TestWarmPoolShipsDigestOnly(t *testing.T) {
	checkGoroutineLeaks(t)
	ep0, _ := startWorker(t)
	ep1, w1 := startWorker(t)
	seg, payload := bigSegment(3)

	warm, err := NewPool(testSpec(t), []Endpoint{ep1})
	if err != nil {
		t.Fatal(err)
	}
	if d := mapEgress(t, warm, 0, 0, seg); d < payload {
		t.Fatalf("first attempt shipped %d bytes, expected the %d-byte payload", d, payload)
	}
	warm.Close()
	if n := w1.CachedSegments(); n != 1 {
		t.Fatalf("warm worker caches %d segments, want 1", n)
	}

	p, err := NewPool(testSpec(t), []Endpoint{ep0, ep1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if d := mapEgress(t, p, 0, 0, seg); d >= payload {
		t.Fatalf("fresh pool over a warm worker shipped %d bytes — residency did not outlive the pool", d)
	}
	if pl := p.Placements(); len(pl) != 1 || pl[0].Addr != ep1.Addr() {
		t.Fatalf("placements %+v, want the one attempt on the warm worker %s", pl, ep1.Addr())
	}
}

// TestCancelledAttemptKeepsResidency: a cancelled attempt retires its
// connection, but the worker still holds its segments, so the next
// attempt on that worker ships only the digest.
func TestCancelledAttemptKeepsResidency(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, _ := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seg, payload := bigSegment(5)
	if d := mapEgress(t, p, 0, 0, seg); d < payload {
		t.Fatalf("first attempt shipped %d bytes, expected the %d-byte payload", d, payload)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunMap(ctx, 0, 1, seg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled attempt: got %v, want context.Canceled", err)
	}
	// The retired connection is redialed in the background; the next
	// attempt waits for it.
	if d := mapEgress(t, p, 0, 2, seg); d >= payload {
		t.Fatalf("attempt after a retired connection shipped %d bytes — retirement wiped residency", d)
	}
}

// TestDropSegmentCacheReshipsOnce: when the worker lost its cache
// behind a warm residency hint, a new pool's digest-only assignment
// draws need-segment and exactly one payload re-ship, the attempt
// succeeds, and the following attempt is digest-only again.
func TestDropSegmentCacheReshipsOnce(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, w := startWorker(t)
	seg, payload := bigSegment(9)
	warm, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	mapEgress(t, warm, 0, 0, seg)
	warm.Close()

	w.DropSegmentCache()
	p, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if d := mapEgress(t, p, 0, 0, seg); d < payload || d >= 2*payload {
		t.Fatalf("attempt after cache loss shipped %d bytes, want one %d-byte payload re-ship", d, payload)
	}
	if n := w.CachedSegments(); n != 1 {
		t.Fatalf("worker caches %d segments after re-ship, want 1", n)
	}
	if d := mapEgress(t, p, 0, 1, seg); d >= payload {
		t.Fatalf("attempt after the re-ship shipped %d bytes — need-segment did not restore residency", d)
	}
}

// TestConcurrentPoolsShareEndpoints: pools opened per job from two
// goroutines at once over the same two workers all reduce the right
// groups; run under -race this pins the endpoint residency's locking.
func TestConcurrentPoolsShareEndpoints(t *testing.T) {
	checkGoroutineLeaks(t)
	ep0, _ := startWorker(t)
	ep1, _ := startWorker(t)
	spec := testSpec(t)
	const callers, jobs = 2, 3
	results := make([][]map[int][]mapreduce.ReducedGroup, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				groups, err := w2wJob(spec, []Endpoint{ep0, ep1})
				if err != nil {
					errs[c] = fmt.Errorf("caller %d job %d: %w", c, j, err)
					return
				}
				results[c] = append(results[c], groups)
			}
		}()
	}
	wg.Wait()
	for c := range callers {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		for _, groups := range results[c] {
			checkW2WGroups(t, groups)
		}
	}
	for _, seg := range w2wSegments() {
		if d := segmentDigest(seg); !ep0.residency().holds(d) && !ep1.residency().holds(d) {
			t.Errorf("segment %d not resident on either endpoint after the jobs", seg.ID)
		}
	}
}

// w2wJob opens a w2w pool, maps every w2wSegments segment and reduces
// both partitions, then closes the pool.
func w2wJob(spec JobSpec, eps []Endpoint) (map[int][]mapreduce.ReducedGroup, error) {
	p, err := NewPool(spec, eps, WithW2W())
	if err != nil {
		return nil, err
	}
	defer p.Close()
	ctx := context.Background()
	commits := map[int][]mapreduce.Run{}
	for task, seg := range w2wSegments() {
		out, err := p.RunMap(ctx, task, 0, seg)
		if err != nil {
			return nil, err
		}
		for _, r := range out.Runs {
			commits[r.Part] = append(commits[r.Part], r)
		}
	}
	groups := map[int][]mapreduce.ReducedGroup{}
	for part := range 2 {
		out, err := p.RunReduce(ctx, part, 0, commits[part])
		if err != nil {
			return nil, err
		}
		groups[part] = out.Groups
	}
	return groups, nil
}

// TestSegmentCacheLRU: the worker's segment cache evicts the least
// recently used segment, and a digest-only hit refreshes recency.
func TestSegmentCacheLRU(t *testing.T) {
	w := NewWorker()
	seg := testSegment()
	ship := func(d uint64) {
		if _, err := w.resolveSegment(&assignment{segDigest: d, seg: seg}); err != nil {
			t.Fatal(err)
		}
	}
	resident := func(d uint64) bool {
		_, err := w.resolveSegment(&assignment{segDigest: d})
		if err != nil && !isNeedSegment(err.Error()) {
			t.Fatal(err)
		}
		return err == nil
	}
	for d := uint64(1); d <= maxCachedSegments; d++ {
		ship(d)
	}
	if !resident(1) { // hit the oldest: it becomes the most recent
		t.Fatal("oldest segment missing before the cache overflowed")
	}
	ship(maxCachedSegments + 1)
	if n := w.CachedSegments(); n != maxCachedSegments {
		t.Fatalf("cache holds %d segments, want %d", n, maxCachedSegments)
	}
	if !resident(1) {
		t.Error("recently hit segment was evicted — the cache is not LRU")
	}
	if resident(2) {
		t.Error("least recently used segment survived the overflow")
	}
}

// TestConnectBoundedByContext: a worker that accepts TCP but never
// answers hello must not hang connect past its context.
func TestConnectBoundedByContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var accepted []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, conn) // held open, never answered
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range accepted {
			c.Close()
		}
		mu.Unlock()
	})
	ep, _ := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.connect(ctx, Dial(ln.Addr().String()))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "hello") {
			t.Fatalf("got %v, want a hello-exchange deadline error", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("connect to a half-open worker still blocked 3s after a 200ms context")
	}
}
