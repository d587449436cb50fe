#!/usr/bin/env bash
# bench.sh — run the engine-critical benchmarks and snapshot the results.
#
# Usage:
#   scripts/bench.sh [output.json]        # default output: BENCH_engine.json
#
# Every benchmark runs five times (go test -count 5). The JSON records, per
# benchmark, the median ns/op with its min and max and the median of every
# other metric; the ratio gates below compare medians. The allocation and
# bytes-per-sample gates take the worst single sample.
#
# Environment:
#   BENCHTIME         go test -benchtime value per sample (default 2s; CI
#                     uses 1x)
#   MAX_ENGINE_ALLOCS when set, fail if any BenchmarkEngineContendedRun
#                     variant exceeds this many allocs/op (the
#                     allocation-regression gate: allocations must stay O(1)
#                     per window, not per access, with or without workers)
#   MIN_BATCH_SPEEDUP when set, fail if BenchmarkBatchEvaluation's
#                     serial/parallel wall-clock ratio falls below this
#                     value (serial runs at GOMAXPROCS=1, so no run's
#                     window fans out either); skipped with a warning on
#                     hosts with fewer than 4 cores, where no speedup is
#                     physically possible
#   MAX_BATCH_ALLOC_RATIO when set, fail if BenchmarkBatchEvaluation's
#                     parallel variant allocates more than this multiple of
#                     the serial variant's allocs/op (the per-worker scratch
#                     reuse gate; core-count independent)
#   MIN_SHARD_SPEEDUP when set, fail if BenchmarkShardAnalyze's
#                     serial/parallel wall-clock ratio falls below this
#                     value (block-parallel analysis of one indexed
#                     recording; serial runs at GOMAXPROCS=1); skipped
#                     with a warning on hosts with fewer than 4 cores
#   MIN_CACHE_SPEEDUP when set, fail if a warm result-cache hit on the
#                     1M-sample analysis (BenchmarkAnalyzeCached cold/warm
#                     ns ratio) is less than this many times faster than the
#                     cold compute-and-store run; core-count independent
#   MIN_OPTIMIZER_SPEEDUP when set, fail if the pruned placement search
#                     (BenchmarkOptimizerSearch pruned: analytic frontier +
#                     branch-and-bound cycle budget, parallel waves) is less
#                     than this many times faster than the serial exhaustive
#                     search (at GOMAXPROCS=1, serial windows included);
#                     skipped with a warning on hosts with fewer
#                     than 4 cores, where the parallel waves degenerate
#   MAX_PROFILE_BYTES_PER_SAMPLE when set, fail if BenchmarkProfile (one
#                     profiled Streamcluster T32-N4 run) allocates more
#                     than this many bytes per kept sample: the collector
#                     buffer is reserved once and handed over without a
#                     copy, so per-append regrowth or a defensive copy
#                     coming back trips it; core-count independent
#   LEDGER_OUT        when set, also run a quick drbw-bench pass with
#                     -ledger here, stamping the bench host with a
#                     machine-readable drbw.ledger/1 audit record (config
#                     hash, build info, timings, metrics snapshot) next to
#                     the benchmark numbers
#
# The benchmarks tracked here cover the simulation hot path end to end plus
# the offline trace pipeline: a full contended engine run, the batch
# evaluation sweep built on it, the raw cache-hierarchy access loop, trace
# generation, the CSV-vs-binary trace decode pair, the slice-vs-stream
# analysis of a 1M-sample recording, and one profiled run's allocation per
# kept sample. The committed BENCH_engine.json records the trajectory;
# the "baseline" block holds the pre-fast-path numbers the 2x acceptance
# bar is measured against. Every speedup block carries the host's core
# count and a "gated" flag saying whether its gate enforces on that host
# (core-dependent ratios degenerate below 4 cores and are skipped there).
# Every fan-out sizes itself from GOMAXPROCS, so each "serial" variant (and
# workers=1) is the benchmark run at GOMAXPROCS=1: the pool, the search's
# waves and every run's window all serial.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_engine.json}
benchtime=${BENCHTIME:-2s}
pattern='^(BenchmarkEngineContendedRun|BenchmarkBatchEvaluation|BenchmarkCacheHierarchyAccess|BenchmarkStreamGeneration|BenchmarkTraceDecode|BenchmarkAnalyzeTrace|BenchmarkAnalyzeCached|BenchmarkShardAnalyze|BenchmarkOptimizerSearch|BenchmarkProfile)$'

raw=$(mktemp)
med=$(mktemp)
trap 'rm -f "$raw" "$med"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count 5 -benchmem . | tee "$raw"

# med holds one line per benchmark, in first-seen order, laid out like go
# test's own output ("name samples value unit value unit ..."), so every
# parser below reads it the same way: each value is the median of that
# metric over the samples, and ns/op is followed by its min (ns-min) and
# max (ns-max).
awk '
function median(list,   v, n, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > t + 0; j--) v[j+1] = v[j]
        v[j+1] = t
    }
    lo = v[1]; hi = v[n]
    if (n % 2) return v[(n + 1) / 2]
    return sprintf("%.15g", (v[n/2] + v[n/2+1]) / 2)
}
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in samples)) order[++n] = name
    samples[name]++
    for (i = 4; i <= NF; i += 2) {
        k = name SUBSEP $i
        if (!(k in vals)) units[name] = units[name] " " $i
        vals[k] = vals[k] " " $(i-1)
    }
}
END {
    for (b = 1; b <= n; b++) {
        name = order[b]
        line = name " " samples[name]
        m = split(units[name], us, " ")
        for (u = 1; u <= m; u++) {
            line = line " " median(vals[name SUBSEP us[u]]) " " us[u]
            if (us[u] == "ns/op") line = line " " lo " ns-min " hi " ns-max"
        }
        print line
    }
}
' "$raw" > "$med"

cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

awk -v out="$out" -v cores="$cores" '
/^Benchmark/ && /ns\/op/ {
    name = $1
    ns = ""; bytes = ""; allocs = ""; nsmin = ""; nsmax = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")      ns = $(i-1)
        if ($i == "ns-min")     nsmin = $(i-1)
        if ($i == "ns-max")     nsmax = $(i-1)
        if ($i == "B/op")       bytes = $(i-1)
        if ($i == "allocs/op")  allocs = $(i-1)
        if ($i == "csv-size-x") sizeratio = $(i-1)
        if ($i == "placement-speedup-x") placement = $(i-1)
    }
    names[++n] = name
    nsv[name] = ns; bv[name] = bytes; av[name] = allocs
    minv[name] = nsmin; maxv[name] = nsmax; cnt[name] = $2
}
END {
    printf "{\n" > out
    printf "  \"cores\": %d,\n", cores >> out
    printf "  \"baseline\": {\n" >> out
    printf "    \"comment\": \"pre-fast-path numbers (map-keyed accounting, per-access allocation); 2.10GHz Xeon\",\n" >> out
    printf "    \"BenchmarkEngineContendedRun\": {\"ns_per_op\": 17740826, \"bytes_per_op\": 24712849, \"allocs_per_op\": 1364},\n" >> out
    printf "    \"BenchmarkCacheHierarchyAccess\": {\"ns_per_op\": 108.3},\n" >> out
    printf "    \"BenchmarkStreamGeneration\": {\"ns_per_op\": 2.423}\n" >> out
    printf "  },\n" >> out
    # Every speedup block records the core count it was measured on and a
    # "gated" flag: true when the matching MIN_* gate enforces on this
    # host, false when the ratio is core-dependent and the host has too
    # few cores for the gate to be meaningful (the gate skips there).
    coregated = (cores >= 4) ? "true" : "false"
    # parallel_speedup: serial/parallel wall-clock ratios. batch is the
    # cross-run pool (BenchmarkBatchEvaluation), window is one run sharded
    # across workers (BenchmarkEngineContendedRun workers=1 vs workers=max),
    # shard is the block-parallel analysis of one indexed recording
    # (BenchmarkShardAnalyze). All degenerate to ~1.0 on a single-core host.
    bs = nsv["BenchmarkBatchEvaluation/serial"]
    bp = nsv["BenchmarkBatchEvaluation/parallel"]
    w1 = nsv["BenchmarkEngineContendedRun/workers=1"]
    wm = nsv["BenchmarkEngineContendedRun/workers=max"]
    ss = nsv["BenchmarkShardAnalyze/serial"]
    sp = nsv["BenchmarkShardAnalyze/parallel"]
    printf "  \"parallel_speedup\": {\"cores\": %d, \"gated\": %s", cores, coregated >> out
    if (bs != "" && bp != "" && bp + 0 > 0) {
        printf ", \"batch\": %.2f", bs / bp >> out
    }
    if (w1 != "" && wm != "" && wm + 0 > 0) {
        printf ", \"window\": %.2f", w1 / wm >> out
    }
    if (ss != "" && sp != "" && sp + 0 > 0) {
        printf ", \"shard\": %.2f", ss / sp >> out
    }
    printf "},\n" >> out
    # trace_codec: binary-vs-CSV decode speedup and file-size ratio on the
    # 1M-sample bench trace. Informational: no gate reads them.
    dc = nsv["BenchmarkTraceDecode/csv"]
    db = nsv["BenchmarkTraceDecode/binary"]
    printf "  \"trace_codec\": {\"cores\": %d, \"gated\": false", cores >> out
    if (dc != "" && db != "" && db + 0 > 0) {
        printf ", \"decode_speedup\": %.2f", dc / db >> out
    }
    if (sizeratio != "") {
        printf ", \"csv_size_ratio\": %s", sizeratio >> out
    }
    printf "},\n" >> out
    # optimizer: the closed-loop placement search. pruned_speedup is the
    # serial-exhaustive/pruned wall-clock ratio (frontier + cycle budget +
    # parallel waves); parallel_speedup isolates the wave parallelism
    # (exhaustive serial vs exhaustive parallel); placement_speedup is the
    # simulated gain of the placement the search chose. cores is recorded
    # beside the ratios because both collapse toward the pruning-only
    # fraction on few-core hosts.
    os = nsv["BenchmarkOptimizerSearch/serial"]
    op = nsv["BenchmarkOptimizerSearch/parallel"]
    og = nsv["BenchmarkOptimizerSearch/pruned"]
    printf "  \"optimizer\": {\"cores\": %d, \"gated\": %s", cores, coregated >> out
    if (os != "" && og != "" && og + 0 > 0) {
        printf ", \"pruned_speedup\": %.2f", os / og >> out
    }
    if (os != "" && op != "" && op + 0 > 0) {
        printf ", \"parallel_speedup\": %.2f", os / op >> out
    }
    if (placement != "") {
        printf ", \"placement_speedup\": %s", placement >> out
    }
    printf "},\n" >> out
    # cache: the content-addressed result cache on the 1M-sample analysis.
    # warm_speedup is the cold (compute + store) over warm (fingerprint +
    # hit) wall-clock ratio; core-count independent, so always gated.
    cc = nsv["BenchmarkAnalyzeCached/cold"]
    cw = nsv["BenchmarkAnalyzeCached/warm"]
    printf "  \"cache\": {\"cores\": %d, \"gated\": true", cores >> out
    if (cc != "") { printf ", \"cold_ns\": %s", cc >> out }
    if (cw != "") { printf ", \"warm_ns\": %s", cw >> out }
    if (cc != "" && cw != "" && cw + 0 > 0) {
        printf ", \"warm_speedup\": %.2f", cc / cw >> out
    }
    printf "},\n" >> out
    printf "  \"benchmarks\": {\n" >> out
    for (i = 1; i <= n; i++) {
        name = names[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"ns_min\": %s, \"ns_max\": %s, \"samples\": %s", name, nsv[name], minv[name], maxv[name], cnt[name] >> out
        if (bv[name] != "") printf ", \"bytes_per_op\": %s", bv[name] >> out
        if (av[name] != "") printf ", \"allocs_per_op\": %s", av[name] >> out
        printf "}%s\n", (i < n ? "," : "") >> out
    }
    printf "  }\n}\n" >> out
}
' "$med"

echo "wrote $out"

if [ -n "${LEDGER_OUT:-}" ]; then
    go run ./cmd/drbw-bench -quick -exp tableI -ledger "$LEDGER_OUT" >/dev/null
    echo "wrote $LEDGER_OUT"
fi

if [ -n "${MAX_ENGINE_ALLOCS:-}" ]; then
    # Worst sample of any worker variant: the gate must hold whether a
    # run's node groups go one after another or in parallel.
    allocs=$(awk '/^BenchmarkEngineContendedRun/ {
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
    }' "$raw" | sort -n | tail -1)
    if [ -z "$allocs" ]; then
        echo "allocation gate: BenchmarkEngineContendedRun not found in output" >&2
        exit 1
    fi
    if [ "$allocs" -gt "$MAX_ENGINE_ALLOCS" ]; then
        echo "allocation gate: BenchmarkEngineContendedRun at $allocs allocs/op (limit $MAX_ENGINE_ALLOCS)" >&2
        exit 1
    fi
    echo "allocation gate: $allocs allocs/op <= $MAX_ENGINE_ALLOCS (worst worker variant)"
fi

if [ -n "${MAX_PROFILE_BYTES_PER_SAMPLE:-}" ]; then
    bps=$(awk '/^BenchmarkProfile/ {
        for (i = 2; i <= NF; i++) if ($i == "B/sample") print $(i-1)
    }' "$raw" | sort -n | tail -1)
    if [ -z "$bps" ]; then
        echo "profile gate: BenchmarkProfile B/sample not found in output" >&2
        exit 1
    fi
    if awk -v b="$bps" -v max="$MAX_PROFILE_BYTES_PER_SAMPLE" 'BEGIN { exit !(b > max) }'; then
        echo "profile gate: a profiled run allocates ${bps} B/sample (limit $MAX_PROFILE_BYTES_PER_SAMPLE)" >&2
        exit 1
    fi
    echo "profile gate: ${bps} B/sample <= $MAX_PROFILE_BYTES_PER_SAMPLE"
fi

if [ -n "${MIN_BATCH_SPEEDUP:-}" ]; then
    if [ "$cores" -lt 4 ]; then
        echo "speedup gate: skipped ($cores cores; needs >= 4 for a meaningful ratio)" >&2
    else
        speedup=$(awk '
        /^BenchmarkBatchEvaluation\/serial/   { for (i = 2; i <= NF; i++) if ($i == "ns/op") s = $(i-1) }
        /^BenchmarkBatchEvaluation\/parallel/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") p = $(i-1) }
        END { if (s != "" && p != "" && p + 0 > 0) printf "%.2f", s / p }
        ' "$med")
        if [ -z "$speedup" ]; then
            echo "speedup gate: BenchmarkBatchEvaluation serial/parallel not found in output" >&2
            exit 1
        fi
        if awk -v s="$speedup" -v min="$MIN_BATCH_SPEEDUP" 'BEGIN { exit !(s < min) }'; then
            echo "speedup gate: batch speedup ${speedup}x below minimum ${MIN_BATCH_SPEEDUP}x on $cores cores" >&2
            exit 1
        fi
        echo "speedup gate: batch speedup ${speedup}x >= ${MIN_BATCH_SPEEDUP}x"
    fi
fi

if [ -n "${MAX_BATCH_ALLOC_RATIO:-}" ]; then
    ratio=$(awk '
    /^BenchmarkBatchEvaluation\/serial/   { for (i = 2; i <= NF; i++) if ($i == "allocs/op") s = $(i-1) }
    /^BenchmarkBatchEvaluation\/parallel/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") p = $(i-1) }
    END { if (s != "" && p != "" && s + 0 > 0) printf "%.3f", p / s }
    ' "$med")
    if [ -z "$ratio" ]; then
        echo "alloc-ratio gate: BenchmarkBatchEvaluation serial/parallel allocs not found in output" >&2
        exit 1
    fi
    if awk -v r="$ratio" -v max="$MAX_BATCH_ALLOC_RATIO" 'BEGIN { exit !(r > max) }'; then
        echo "alloc-ratio gate: parallel batch allocates ${ratio}x the serial sweep (limit ${MAX_BATCH_ALLOC_RATIO}x)" >&2
        exit 1
    fi
    echo "alloc-ratio gate: parallel/serial allocs ${ratio}x <= ${MAX_BATCH_ALLOC_RATIO}x"
fi

if [ -n "${MIN_SHARD_SPEEDUP:-}" ]; then
    if [ "$cores" -lt 4 ]; then
        echo "shard gate: skipped ($cores cores; needs >= 4 for a meaningful ratio)" >&2
    else
        sspeed=$(awk '
        /^BenchmarkShardAnalyze\/serial/   { for (i = 2; i <= NF; i++) if ($i == "ns/op") s = $(i-1) }
        /^BenchmarkShardAnalyze\/parallel/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") p = $(i-1) }
        END { if (s != "" && p != "" && p + 0 > 0) printf "%.2f", s / p }
        ' "$med")
        if [ -z "$sspeed" ]; then
            echo "shard gate: BenchmarkShardAnalyze serial/parallel not found in output" >&2
            exit 1
        fi
        if awk -v s="$sspeed" -v min="$MIN_SHARD_SPEEDUP" 'BEGIN { exit !(s < min) }'; then
            echo "shard gate: shard speedup ${sspeed}x below minimum ${MIN_SHARD_SPEEDUP}x on $cores cores" >&2
            exit 1
        fi
        echo "shard gate: shard speedup ${sspeed}x >= ${MIN_SHARD_SPEEDUP}x"
    fi
fi

if [ -n "${MIN_CACHE_SPEEDUP:-}" ]; then
    # No core-count skip: a cache hit beats recomputation on any host.
    cspeed=$(awk '
    /^BenchmarkAnalyzeCached\/cold/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") c = $(i-1) }
    /^BenchmarkAnalyzeCached\/warm/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") w = $(i-1) }
    END { if (c != "" && w != "" && w + 0 > 0) printf "%.2f", c / w }
    ' "$med")
    if [ -z "$cspeed" ]; then
        echo "cache gate: BenchmarkAnalyzeCached cold/warm not found in output" >&2
        exit 1
    fi
    if awk -v s="$cspeed" -v min="$MIN_CACHE_SPEEDUP" 'BEGIN { exit !(s < min) }'; then
        echo "cache gate: warm hit ${cspeed}x faster than cold, below minimum ${MIN_CACHE_SPEEDUP}x" >&2
        exit 1
    fi
    echo "cache gate: warm hit ${cspeed}x >= ${MIN_CACHE_SPEEDUP}x faster than cold"
fi

if [ -n "${MIN_OPTIMIZER_SPEEDUP:-}" ]; then
    if [ "$cores" -lt 4 ]; then
        echo "optimizer gate: skipped ($cores cores; needs >= 4 for a meaningful ratio)" >&2
    else
        ospeed=$(awk '
        /^BenchmarkOptimizerSearch\/serial/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") s = $(i-1) }
        /^BenchmarkOptimizerSearch\/pruned/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") p = $(i-1) }
        END { if (s != "" && p != "" && p + 0 > 0) printf "%.2f", s / p }
        ' "$med")
        if [ -z "$ospeed" ]; then
            echo "optimizer gate: BenchmarkOptimizerSearch serial/pruned not found in output" >&2
            exit 1
        fi
        if awk -v s="$ospeed" -v min="$MIN_OPTIMIZER_SPEEDUP" 'BEGIN { exit !(s < min) }'; then
            echo "optimizer gate: pruned search ${ospeed}x faster than exhaustive serial, below minimum ${MIN_OPTIMIZER_SPEEDUP}x on $cores cores" >&2
            exit 1
        fi
        echo "optimizer gate: pruned search ${ospeed}x >= ${MIN_OPTIMIZER_SPEEDUP}x faster than exhaustive serial"
    fi
fi
