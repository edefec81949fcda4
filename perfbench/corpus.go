package main

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// scale sizes one run's inputs.
type scale struct {
	Records  int // records per hosted corpus
	Segments int // segments per hosted corpus
}

// corpusNames are the four hosted corpora, in a fixed order.
var corpusNames = []string{"github", "bing", "twitter", "redshift"}

// freshBase is how many distinct base segments each corpus keeps for
// serve-append: one per append in a live dataset's cycle, so no live
// dataset ever holds the same records twice.
const freshBase = appendCycle

// corpora is one seeded instance of every input a run hosts.
type corpora struct {
	segs map[string][]*mapreduce.Segment
	// fresh holds, per corpus, the base segments serve-append derives
	// its never-seen-before appends from (see freshSegment). Nil for
	// the other workloads.
	fresh map[string][]*mapreduce.Segment
}

// splitmix64 derives independent sub-seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed returns the i-th generator seed for a workload seed.
func subSeed(seed int64, i uint64) int64 {
	return int64(splitmix64(uint64(seed)*0x100+i) >> 1)
}

// genCorpus generates n records of one corpus cut into segs segments,
// with group cardinalities fixed by the hosted corpus size hosted so
// fresh segments land on the hosted corpus's keys. Filler sizes follow
// the paper's record sizes: github and the complete RedShift variant
// carry ~1 KB records whose fields are mostly scanned past (§6.3).
func genCorpus(name string, n, segs, hosted int, seed int64) []*mapreduce.Segment {
	switch name {
	case "github":
		return data.GenGithub(data.GithubConfig{
			Records: n, Repos: max(hosted/20, 1), Segments: segs, Filler: 820, Seed: seed})
	case "bing":
		return data.GenBing(data.BingConfig{
			Records: n, Users: max(hosted/5, 1), Geos: 50, Segments: segs,
			Filler: 100, Seed: seed, Outages: max(n/15000, 3)})
	case "twitter":
		return data.GenTwitter(data.TwitterConfig{
			Records: n, Hashtags: max(hosted/10, 1), Users: max(hosted/4, 1),
			Segments: segs, Filler: 300, Seed: seed})
	case "redshift":
		return data.GenRedshift(data.RedshiftConfig{
			Records: n, Advertisers: 100, Segments: segs,
			Filler: 850, Seed: seed, DarkWindows: 3})
	}
	panic("perfbench: unknown corpus " + name)
}

// genCorpora generates the hosted corpora for a workload seed, plus
// serve-append's fresh base segments when withFresh is set. Every
// generator seed derives from the workload seed.
func genCorpora(sc scale, seed int64, withFresh bool) *corpora {
	c := &corpora{segs: map[string][]*mapreduce.Segment{}}
	for i, name := range corpusNames {
		c.segs[name] = genCorpus(name, sc.Records, sc.Segments, sc.Records, subSeed(seed, uint64(i)))
	}
	if withFresh {
		c.fresh = map[string][]*mapreduce.Segment{}
		per := max(sc.Records/sc.Segments, 1)
		for i, name := range corpusNames {
			c.fresh[name] = genCorpus(name, per*freshBase, freshBase, sc.Records, subSeed(seed, uint64(16+i)))
		}
	}
	return c
}

// freshSegment returns the segment caller appends in pass as the k-th
// append of a live dataset's cycle: base segment k with its records
// rotated by an offset unique to (caller, pass). The records are real
// generated records, but no earlier append to a dataset of the same
// query had this byte sequence, so the content-addressed summary cache
// cannot answer it — every append is new map work. The rotation shares
// the base records' backing arrays, so an append costs no record
// memory.
func (c *corpora) freshSegment(corpus string, k, caller, pass, callers int) *mapreduce.Segment {
	base := c.fresh[corpus][k]
	n := len(base.Records)
	if n < 2 {
		panic("perfbench: fresh base segment too small to rotate")
	}
	rot := 1 + (pass*callers+caller)%(n-1)
	recs := make([][]byte, 0, n)
	recs = append(recs, base.Records[rot:]...)
	recs = append(recs, base.Records[:rot]...)
	return &mapreduce.Segment{Records: recs}
}

// stats returns the record and byte totals of the hosted corpora.
func (c *corpora) stats() (records, bytes int64) {
	for _, segs := range c.segs {
		for _, s := range segs {
			records += int64(len(s.Records))
			bytes += s.Bytes()
		}
	}
	return records, bytes
}

// queryOrder returns the 12 queries in the seeded order every pass of a
// run follows.
func queryOrder(seed int64) []*queries.Spec {
	all := queries.All()
	r := rand.New(rand.NewSource(subSeed(seed, 99)))
	out := make([]*queries.Spec, len(all))
	for i, j := range r.Perm(len(all)) {
		out[i] = all[j]
	}
	return out
}

// copySegments returns fresh Segment headers over the same records.
// serve's AddDataset rewrites Segment.ID on the segments it is handed,
// so each hosted dataset gets headers of its own.
func copySegments(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := make([]*mapreduce.Segment, len(segs))
	for i, s := range segs {
		c := *s
		out[i] = &c
	}
	return out
}
