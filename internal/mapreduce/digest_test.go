package mapreduce_test

import (
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// TestSegmentDigestContentAddressing pins that the digest depends on
// record content only — not the segment ID — and separates both
// content changes and record-boundary changes.
func TestSegmentDigestContentAddressing(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("beta")}
	a := &mapreduce.Segment{ID: 0, Records: recs}
	b := &mapreduce.Segment{ID: 7, Records: recs}
	if a.Digest() != b.Digest() {
		t.Fatal("digest must ignore segment ID")
	}
	mut := &mapreduce.Segment{Records: [][]byte{[]byte("alpha"), []byte("betb")}}
	if a.Digest() == mut.Digest() {
		t.Fatal("digest must see content changes")
	}
	rebound := &mapreduce.Segment{Records: [][]byte{[]byte("alphab"), []byte("eta")}}
	if a.Digest() == rebound.Digest() {
		t.Fatal("digest must see record boundaries")
	}
	if (&mapreduce.Segment{}).Digest() == 0 {
		t.Fatal("zero digest is reserved")
	}
}

// TestSegmentDigestVector pins the hash itself: coordinator digests
// name segments in other processes' caches, so the value must not
// depend on the process (no random seed) or change silently. Records
// cover a word-aligned run, a short tail, and an empty record.
func TestSegmentDigestVector(t *testing.T) {
	seg := &mapreduce.Segment{Records: [][]byte{
		[]byte("alpha"), []byte("beta"), []byte(""), []byte("0123456789abcdef-gh"),
	}}
	const want = 0x552c48c8ccbd3b44
	if got := seg.Digest(); got != want {
		t.Fatalf("digest %#016x, want %#016x", got, want)
	}
	if got := (&mapreduce.Segment{}).Digest(); got != 0xb8371b5e9326a9e3 {
		t.Fatalf("empty-segment digest %#016x, want 0xb8371b5e9326a9e3", got)
	}
}

// TestSegmentDigestMemo checks that concurrent first calls agree, and
// that WithID copies carry the digest, share the records, and leave
// the source's ID alone.
func TestSegmentDigestMemo(t *testing.T) {
	seg := &mapreduce.Segment{ID: 3, Records: [][]byte{[]byte("x\t1"), []byte("y\t2")}}
	want := (&mapreduce.Segment{Records: seg.Records}).Digest()
	var wg sync.WaitGroup
	got := make([]uint64, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = seg.WithID(i).Digest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("copy %d: digest %#x, want %#x", i, d, want)
		}
	}
	if c := seg.WithID(9); c.ID != 9 || seg.ID != 3 || &c.Records[0] != &seg.Records[0] {
		t.Fatalf("WithID: copy ID %d, source ID %d, records shared %v", c.ID, seg.ID, &c.Records[0] == &seg.Records[0])
	}
}

// BenchmarkSegmentDigest hashes the golden corpora (all four datasets)
// from scratch each iteration; MB/s is the hashing rate.
func BenchmarkSegmentDigest(b *testing.B) {
	var segs []*mapreduce.Segment
	var bytes int64
	for _, ds := range queries.GoldenDatasets(queries.GoldenSegments) {
		for _, seg := range ds {
			segs = append(segs, seg)
			bytes += seg.Bytes()
		}
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for range b.N {
		for _, seg := range segs {
			_ = (&mapreduce.Segment{Records: seg.Records}).Digest()
		}
	}
}
