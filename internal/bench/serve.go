package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/queries"
	"repro/internal/serve"
)

// serveRounds is the timed repetitions per latency cell; the reported
// number is the best round. Cold cells get fresh caches (the server's
// cache is flushed before each round), warm cells re-submit against a
// populated cache, and append cells fold exactly one new segment.
const serveRounds = 3

// ServeRun measures the query service's three latency regimes across
// all 12 queries against a real loopback server: a cold submission
// that maps every segment, a warm re-submission answered from the
// dataset's standing fold, and an incremental append that folds only
// the one new segment onto it. Every result is digest-checked against the
// cold run, the warm run is required to perform zero map work
// (CacheHits == segments, MappedSegments == 0), and the append run is
// required to map exactly one segment. Results go to BENCH_SERVE.json.
func ServeRun(d *Datasets) (*Table, error) {
	queries.RegisterClusterJobs() // binds every query's serve runner
	srv := serve.New(serve.Config{
		Engine: mapreduce.Config{NumReducers: 4, Trace: Trace, Registry: Registry},
	})
	for _, name := range []string{"github", "bing", "twitter", "redshift"} {
		segs, err := d.For(name, false)
		if err != nil {
			return nil, err
		}
		srv.AddDataset(name, segs)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer c.Close()

	t := &Table{
		Title:  "Query service: cold vs warm-cache vs incremental-append latency",
		Header: []string{"Query", "cold", "warm", "append", "warm speedup", "append speedup"},
		Notes: []string{
			fmt.Sprintf("best of %d rounds over a loopback TCP server; cold rounds flush the segment-summary cache first", serveRounds),
			"warm: re-submission answered from the standing fold — zero map attempts, asserted per round",
			"append: one segment appended to a warmed dataset — exactly one segment mapped, asserted per round",
			"every round digest-checked against the cold result",
			"written to BENCH_SERVE.json",
		},
	}
	rep := serveReport{Rounds: serveRounds, Segments: d.Scale.Segments, Records: d.Scale.Records}
	for _, spec := range queries.All() {
		cell, err := serveCell(srv, c, d, spec)
		if err != nil {
			return nil, fmt.Errorf("serve %s: %w", spec.ID, err)
		}
		rep.Cells = append(rep.Cells, *cell)
		t.Rows = append(t.Rows, []string{
			spec.ID,
			fmt.Sprintf("%.1fms", cell.ColdSeconds*1000),
			fmt.Sprintf("%.2fms", cell.WarmSeconds*1000),
			fmt.Sprintf("%.1fms", cell.AppendSeconds*1000),
			fmtFactor(cell.WarmSpeedup),
			fmtFactor(cell.AppendSpeedup),
		})
	}
	f, err := os.Create("BENCH_SERVE.json")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return t, nil
}

// serveCell measures one query's three regimes. The append regime gets
// its own dataset per query (named "append-<id>") holding all but the
// last segment, warmed by one submission, then grown by one segment so
// the timed submission folds exactly the new arrival.
func serveCell(srv *serve.Server, c *serve.Client, d *Datasets, spec *queries.Spec) (*serveCellResult, error) {
	segs, err := d.For(spec.Dataset, false)
	if err != nil {
		return nil, err
	}
	submit := func(dataset string) (cluster.JobResult, float64, error) {
		start := time.Now()
		j, err := c.Submit(cluster.JobSubmit{Tenant: "bench", Query: spec.ID, Dataset: dataset})
		if err != nil {
			return cluster.JobResult{}, 0, err
		}
		res, err := j.Wait()
		if err != nil {
			return cluster.JobResult{}, 0, err
		}
		return res, time.Since(start).Seconds(), nil
	}

	cell := &serveCellResult{Query: spec.ID, Segments: len(segs)}
	for round := 0; round < serveRounds; round++ {
		srv.FlushCache()
		cold, coldS, err := submit(spec.Dataset)
		if err != nil {
			return nil, fmt.Errorf("cold: %w", err)
		}
		if cold.MappedSegments != len(segs) {
			return nil, fmt.Errorf("cold round mapped %d of %d segments — flush failed", cold.MappedSegments, len(segs))
		}
		if round == 0 {
			cell.Digest = cold.Digest
			cell.Groups = cold.NumResults
		} else if cold.Digest != cell.Digest {
			return nil, fmt.Errorf("cold digest %016x != first round %016x", cold.Digest, cell.Digest)
		}
		warm, warmS, err := submit(spec.Dataset)
		if err != nil {
			return nil, fmt.Errorf("warm: %w", err)
		}
		if warm.Digest != cold.Digest {
			return nil, fmt.Errorf("warm digest %016x != cold %016x", warm.Digest, cold.Digest)
		}
		if warm.MappedSegments != 0 || warm.CacheHits != len(segs) {
			return nil, fmt.Errorf("warm round mapped %d segments (%d cached) — cache miss on re-submission",
				warm.MappedSegments, warm.CacheHits)
		}
		if cell.ColdSeconds == 0 || coldS < cell.ColdSeconds {
			cell.ColdSeconds = coldS
		}
		if cell.WarmSeconds == 0 || warmS < cell.WarmSeconds {
			cell.WarmSeconds = warmS
		}
	}

	// Append regime: host a prefix, warm it, then time the fold of one
	// appended segment. Rebuilt per round so each append is cold for
	// exactly the new segment.
	for round := 0; round < serveRounds; round++ {
		name := fmt.Sprintf("append-%s-%d", spec.ID, round)
		// The cache is content-addressed across datasets, so the batch
		// regime above already holds every segment's bundle — flush so
		// the appended segment is genuinely new work.
		srv.FlushCache()
		srv.AddDataset(name, segs[:len(segs)-1])
		if _, _, err := submit(name); err != nil {
			return nil, fmt.Errorf("append warmup: %w", err)
		}
		if err := srv.AppendSegment(name, segs[len(segs)-1]); err != nil {
			return nil, err
		}
		app, appS, err := submit(name)
		if err != nil {
			return nil, fmt.Errorf("append: %w", err)
		}
		if app.MappedSegments != 1 || app.CacheHits != len(segs)-1 {
			return nil, fmt.Errorf("append round mapped %d segments (%d cached), want exactly 1 new",
				app.MappedSegments, app.CacheHits)
		}
		if app.Digest != cell.Digest {
			return nil, fmt.Errorf("append digest %016x != batch %016x", app.Digest, cell.Digest)
		}
		if cell.AppendSeconds == 0 || appS < cell.AppendSeconds {
			cell.AppendSeconds = appS
		}
	}
	if cell.WarmSeconds > 0 {
		cell.WarmSpeedup = cell.ColdSeconds / cell.WarmSeconds
	}
	if cell.AppendSeconds > 0 {
		cell.AppendSpeedup = cell.ColdSeconds / cell.AppendSeconds
	}
	return cell, nil
}

type serveCellResult struct {
	Query    string `json:"query"`
	Segments int    `json:"segments"`
	Groups   int    `json:"groups"`
	// Digest is the result digest shared by all three regimes — the
	// cache and incremental fold must not change answers.
	Digest uint64 `json:"digest"`
	// ColdSeconds maps every segment; WarmSeconds answers from the
	// standing fold alone; AppendSeconds folds exactly one new segment
	// onto a warmed dataset's fold. Each is the best round.
	ColdSeconds   float64 `json:"cold_seconds"`
	WarmSeconds   float64 `json:"warm_seconds"`
	AppendSeconds float64 `json:"append_seconds"`
	WarmSpeedup   float64 `json:"warm_speedup"`
	AppendSpeedup float64 `json:"append_speedup"`
}

type serveReport struct {
	Rounds   int               `json:"rounds"`
	Records  int               `json:"records"`
	Segments int               `json:"segments"`
	Cells    []serveCellResult `json:"cells"`
}
