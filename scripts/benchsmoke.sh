#!/usr/bin/env bash
# Benchmark smoke: run the hot-path benchmarks CI tracks and compare
# their ns/op against the committed baselines in
# scripts/bench_baseline.txt. No benchstat binary is assumed — the
# comparison is a plain awk pass with generous slack (default 3x,
# override with BENCH_SMOKE_SLACK) so only order-of-magnitude
# regressions fail. CI machines are noisy; this is a tripwire for
# accidental hot-loop deoptimization, not a precision perf gate.
set -euo pipefail
cd "$(dirname "$0")/.."

SLACK="${BENCH_SMOKE_SLACK:-3.0}"
BASELINE="scripts/bench_baseline.txt"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go test -run '^$' -bench 'BenchmarkSymExec$' -benchtime 200000x ./internal/sym | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkSummaryEncode$|BenchmarkSummaryDecode$|BenchmarkComposeTree$' -benchtime 20000x ./internal/sym | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkEmitHotPath$' -benchtime 200000x ./internal/mapreduce | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkBatchExec$|BenchmarkRunProbe$|BenchmarkBatchKeyedGroups$|BenchmarkBatchMixedGate$' -benchtime 20000x ./internal/sym | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkColumnarParse$' -benchtime 200x ./internal/data | tee -a "$OUT"
# Serve path: content hashing of the golden corpora (MB/s) and a warm
# B3 re-submission through an in-process server over loopback.
go test -run '^$' -bench 'BenchmarkSegmentDigest$' -benchtime 200x ./internal/mapreduce | tee -a "$OUT"
go test -run '^$' -bench 'BenchmarkServeWarm$' -benchtime 2000x ./internal/serve | tee -a "$OUT"
# Cluster path: one w2w G1 job per iteration through a fresh pool over
# two in-process workers that earlier jobs already warmed (digest-only
# assignments).
go test -run '^$' -bench 'BenchmarkClusterWarmPoolJob$' -benchtime 50x ./internal/cluster | tee -a "$OUT"

awk -v slack="$SLACK" '
NR == FNR {
    if ($0 ~ /^#/ || NF < 2) next
    base[$1] = $2
    next
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
    ns = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") { ns = $i; break }
    }
    if (ns == "" || !(name in base)) next
    checked++
    limit = base[name] * slack
    status = (ns + 0 <= limit) ? "ok" : "REGRESSION"
    printf "%-40s %10.1f ns/op  baseline %8.1f  limit %9.1f  %s\n", \
        name, ns, base[name], limit, status
    if (status == "REGRESSION") bad++
}
END {
    if (checked == 0) {
        print "benchsmoke: no baselined benchmarks matched" > "/dev/stderr"
        exit 1
    }
    if (bad > 0) {
        printf "benchsmoke: %d benchmark(s) beyond %.1fx slack\n", \
            bad, slack > "/dev/stderr"
        exit 1
    }
    printf "benchsmoke: OK (%d benchmarks within %.1fx of baseline)\n", \
        checked, slack
}' "$BASELINE" "$OUT"
