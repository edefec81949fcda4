package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// The benchmark's own spans wrap each call it makes into a public entry
// point. They share the program's trace (and span-ID space) so the
// JSONL dump reads as one tree, and carry the tag benchTag=1 so the
// accounting below can tell them from program spans.
const benchTag = "bench"

// Benchmark span kinds: one umbrella per job (a KindJob root, so the
// program's own job roots started on a fork of it nest underneath), and
// one span per public call.
const (
	kindGen        = "bench.gen"
	kindAddDataset = "bench.add_dataset"
	kindAppend     = "bench.append_segment"
	kindSubmit     = "bench.submit"
	kindWait       = "bench.wait"
	kindSymple     = "bench.symple"
	kindNewPool    = "bench.new_pool"
	kindSpawn      = "bench.spawn_workers"
)

// Attributes on a job umbrella: which caller ran it, in which pass.
const (
	attrCaller = "caller"
	attrPass   = "pass"
)

// startBench opens a benchmark span on t (nil-safe).
func startBench(t *obs.Trace, kind, name string) *obs.ActiveSpan {
	return t.Start(kind, name).Tag(benchTag, "1")
}

// startUmbrella opens a job umbrella on a fresh fork of t and returns
// the fork, whose further forks nest program jobs under the umbrella.
func startUmbrella(t *obs.Trace, name string, caller, pass int) (*obs.Trace, *obs.ActiveSpan) {
	if t == nil {
		return nil, nil
	}
	f := t.Fork()
	um := f.StartJob(name).Tag(benchTag, "1").
		Attr(attrCaller, int64(caller)).Attr(attrPass, int64(pass))
	return f, um
}

func isBench(sp *obs.Span) bool { return sp.Tags[benchTag] == "1" }

// interval is a half-open [start, end) span of wall time in ns.
type interval struct{ start, end int64 }

// unionLen returns the total length of ivs clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}

// passKey identifies one caller's pass through the query mix.
type passKey struct{ caller, pass int }

// traceTotals is one traced pass's accounting, in nanoseconds.
type traceTotals struct {
	self map[string]int64 // program span kind → summed self time
	dark int64            // umbrella time covered by no program span but a job root
	// Per engine job, the wall time covered by its map (reduce)
	// attempts, summed: the map and reduce phase walls of engine runs
	// whose Metrics the caller never sees (serve's cold maps).
	mapWall, reduceWall int64
	// Summed over map_exec spans: summaries emitted.
	summaries int64
}

// accountTrace attributes every program span under a job umbrella to
// that umbrella's pass and sums, per pass, self time by span kind and
// dark time.
//
// A span's self time is its duration minus the part of it its child
// spans (by parent link) cover. Job roots are umbrellas, not work: dark
// time is the umbrella's wall time covered by no program span other
// than a job root — time spent in the benchmark's calls that no span
// of the program accounts for.
//
// Serve jobs run on the server's own trace, so their roots are top-level
// spans; each is attached to the umbrella of the same caller (tenant tag)
// whose interval contains it — a caller has one job in flight at a time.
func accountTrace(spans []*obs.Span) map[passKey]*traceTotals {
	children := map[int64][]*obs.Span{}
	var umbrellas []*obs.Span
	umbrellasOf := map[string][]*obs.Span{} // tenant → its umbrellas
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
		if isBench(sp) && sp.Kind == obs.KindJob && sp.Attrs != nil {
			if _, ok := sp.Attrs[attrPass]; ok {
				umbrellas = append(umbrellas, sp)
				tenant := tenantName(int(sp.Attrs[attrCaller]))
				umbrellasOf[tenant] = append(umbrellasOf[tenant], sp)
			}
		}
	}
	// Attach serve job roots to the umbrella that contains them.
	for _, sp := range spans {
		if sp.Parent != 0 || sp.Kind != obs.KindJob || isBench(sp) {
			continue
		}
		for _, um := range umbrellasOf[sp.Tags["tenant"]] {
			if um.Start <= sp.Start && sp.End <= um.End {
				children[um.ID] = append(children[um.ID], sp)
				break
			}
		}
	}

	out := map[passKey]*traceTotals{}
	for _, um := range umbrellas {
		key := passKey{int(um.Attrs[attrCaller]), int(um.Attrs[attrPass])}
		tt := out[key]
		if tt == nil {
			tt = &traceTotals{self: map[string]int64{}}
			out[key] = tt
		}
		var covered []interval
		var walk func(sp *obs.Span)
		walk = func(sp *obs.Span) {
			kids := children[sp.ID]
			if !isBench(sp) {
				ivs := make([]interval, 0, len(kids))
				for _, k := range kids {
					ivs = append(ivs, interval{k.Start, k.End})
				}
				tt.self[sp.Kind] += sp.End - sp.Start - unionLen(ivs, sp.Start, sp.End)
				switch sp.Kind {
				case obs.KindJob:
					tt.mapWall += phaseWall(kids, obs.KindMapAttempt)
					tt.reduceWall += phaseWall(kids, obs.KindReduceAttempt)
				case obs.KindMapExec:
					tt.summaries += sp.Attr(obs.AttrSummaries)
				}
				if sp.Kind != obs.KindJob {
					covered = append(covered, interval{sp.Start, sp.End})
				}
			}
			for _, k := range kids {
				walk(k)
			}
		}
		walk(um)
		tt.dark += um.End - um.Start - unionLen(covered, um.Start, um.End)
	}
	return out
}

// phaseWall returns the wall time the spans of one kind cover.
func phaseWall(spans []*obs.Span, kind string) int64 {
	var ivs []interval
	lo, hi := int64(1<<62), int64(0)
	for _, sp := range spans {
		if sp.Kind == kind {
			ivs = append(ivs, interval{sp.Start, sp.End})
			lo, hi = min(lo, sp.Start), max(hi, sp.End)
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	return unionLen(ivs, lo, hi)
}

// writeJSONL dumps spans, one JSON object per line, in the format the
// program's own -trace flags write.
func writeJSONL(path string, spans []*obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f) // Close flushes and closes f
	for _, sp := range spans {
		sink.Emit(sp)
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// selfMetric names the per-layer self-time metric of a span kind.
func selfMetric(kind string) string { return "trace." + kind + ".self_ms" }
