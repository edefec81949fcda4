package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestDecodeRejectsOutOfRangeJobSpec pins the wire bounds on JobSpec:
// every out-of-range knob, and a w2w owner table that does not match
// the reducer count, is an ErrFrame at decode time — in assignments and
// reduce requests alike — while the bounds themselves still decode.
func TestDecodeRejectsOutOfRangeJobSpec(t *testing.T) {
	for _, c := range outOfRangeAssignments() {
		if _, err := decodeAssign(encodeAssign(c.a)); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: decodeAssign = %v, want ErrFrame", c.name, err)
		}
	}
	if _, err := decodeReduce(encodeReduce(zeroReducersReduce())); !errors.Is(err, ErrFrame) {
		t.Errorf("zero-reducer reduce request: decodeReduce = %v, want ErrFrame", err)
	}
	for _, edit := range []func(*JobSpec){
		func(s *JobSpec) { s.NumReducers = 1 },
		func(s *JobSpec) { s.NumReducers = maxParts },
		func(s *JobSpec) { s.MemoSize = maxMemoSize },
		func(s *JobSpec) { s.MemoSize = -1 }, // memo off
		func(s *JobSpec) { s.MapParallelism = maxMapParallelism },
		func(s *JobSpec) { s.MapParallelism = 0 },
	} {
		a := seedAssignment()
		edit(&a.spec)
		got, err := decodeAssign(encodeAssign(a))
		if err != nil {
			t.Errorf("in-range spec %+v rejected: %v", a.spec, err)
		} else if got.spec != a.spec {
			t.Errorf("spec round trip: got %+v, want %+v", got.spec, a.spec)
		}
	}
}

// TestWorkerSurvivesOutOfRangeAssignment sends a live worker each
// out-of-range assignment, for a query it serves, on its own
// connection. The worker must answer with an error frame and hang up
// that connection only — never build a mapper or index its tables with
// the bad values — and then still serve a valid job.
func TestWorkerSurvivesOutOfRangeAssignment(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, w := startWorker(t)
	spec := testSpec(t)
	for _, c := range outOfRangeAssignments() {
		c.a.spec.Query = spec.Query
		func() {
			conn, err := net.Dial("tcp", ep.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			fr, fw := newFrameReader(conn), newFrameWriter(conn)
			if err := fw.write(FrameHello, encodeHello()); err != nil {
				t.Fatal(err)
			}
			if f, err := fr.next(); err != nil || f.Type != FrameHello {
				t.Fatalf("%s: hello reply %v, %v", c.name, f.Type, err)
			}
			if err := fw.write(FrameAssign, encodeAssign(c.a)); err != nil {
				t.Fatal(err)
			}
			f, err := fr.next()
			if err != nil || f.Type != FrameError {
				t.Fatalf("%s: reply %v, %v; want an error frame", c.name, f.Type, err)
			}
			if msg, _ := decodeError(f.Payload); msg == "" {
				t.Errorf("%s: empty error frame", c.name)
			}
			if _, err := fr.next(); err != io.EOF {
				t.Errorf("%s: connection still open after a corrupt assignment: %v", c.name, err)
			}
		}()
	}
	p, err := NewPool(spec, []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out, err := p.RunMap(context.Background(), 0, 0, testSegment())
	if err != nil {
		t.Fatalf("worker stopped serving after out-of-range assignments: %v", err)
	}
	if out.Records != 4 || len(out.Runs) == 0 {
		t.Errorf("valid job after the bad ones: %d records, %d runs", out.Records, len(out.Runs))
	}
	if w.Jobs() != 0 {
		t.Errorf("%d job states retained from rejected assignments", w.Jobs())
	}
}
