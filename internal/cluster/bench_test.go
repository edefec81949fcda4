package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// BenchmarkClusterWarmPoolJob is one w2w G1 job over the golden
// segments the way a pool-per-job caller runs it: a fresh pool over two
// in-process workers that earlier jobs already warmed, so every
// assignment ships only its segment digest. It reports the
// coordinator's egress per job beside ns/op.
func BenchmarkClusterWarmPoolJob(b *testing.B) {
	eps := startWorkers(b, 2)
	spec := queries.ByID("G1")
	segs := queries.GoldenDatasets(queries.GoldenSegments)[spec.Dataset]
	job := func() (*queries.Run, cluster.PoolStats) {
		pool, err := cluster.NewPool(
			queries.ClusterSpec(spec.ID, mapreduce.Config{NumReducers: 3}, core.SympleOptions{}),
			eps, cluster.WithW2W())
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		conf := remoteConf(pool)
		conf.RemoteReduce = pool
		run, err := spec.SympleOpts(segs, conf, core.SympleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return run, pool.Stats()
	}
	cold, _ := job() // ships every segment and warms both workers
	var egress int64
	b.ResetTimer()
	for range b.N {
		run, st := job()
		if run.Digest != cold.Digest {
			b.Fatalf("warm digest %016x != cold %016x", run.Digest, cold.Digest)
		}
		egress += st.ConnEgressBytes
	}
	b.ReportMetric(float64(egress)/float64(b.N), "egress_B/op")
}
