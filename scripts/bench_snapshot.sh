#!/usr/bin/env bash
# Tracked perf trajectory for the arrangement benchmarks.
#
# Runs the splitting-phase scaling group (`splitting_sweep_vs_naive`), the
# incremental-maintenance groups (`incremental_update`, `batch_update`), the
# assembly groups (`assemble_view_vs_copy`, `parallel_cold_build`), the
# intra-component strip-sweep and whole-component build groups (`strip_sweep`,
# `phase_build`, including seam-skew and per-phase work metrics), the
# open-query planner group (`planner_bindings`, including its work-counter
# metrics), the open-loop traffic harness (`traffic/*` p50/p99 latency
# metrics) and the durable-commit group (`wal_commit/*`), merges their
# machine-readable records into one snapshot (default:
# BENCH_arrangement.json at the repository root), and then compares the
# fresh run against the previously committed snapshot:
#
#   * every benchmark present in both runs gets a printed delta;
#   * a >25% slowdown in any `sweep/*`, `assemble_view_vs_copy/view/*`,
#     `strip_sweep/serial/*`, `phase_build/threads1/*` or
#     `planner_bindings/planned/*` entry is a tracked regression and fails
#     the script (exit non-zero); the latency metric `traffic/read/p99_ns`
#     is tracked too, with a wider >150% threshold (open-loop tail
#     latencies are noisier than median ns/iter), as is
#     `wal_commit/percommit/p50_ns` (fsync latency varies with the host's
#     storage stack);
#   * the sweep must still beat the naive splitter, the incremental update
#     path must beat the full rebuild, a k-insert transaction must beat k
#     sequential insert+read rounds, and the zero-copy view assembly must
#     beat the copying assembly, at the largest sizes;
#   * on multi-core hosts, the parallel cold build on all threads must beat
#     the single-thread build, and the strip-decomposed sweep on all threads
#     must beat the monolithic sweep by >1.5x on the dense single-component
#     map on hosts with 4+ cores (a simple win on 2-3 cores; both skipped
#     on single-core hosts, where no speedup is possible);
#   * the semi-join planner must beat the cartesian-product enumerator by
#     >10x on the anchored 2-variable open query at the largest size;
#   * the crossing-density seam model's event skew must not exceed the
#     endpoint-quantile baseline's at the largest strip-sweep size;
#   * durability must be affordable: the per-commit-fsync commit p50 must
#     stay within 20x of the in-memory commit p50 at 256 regions, and the
#     interval (group-commit) policy must recover most of that cost
#     (beat the per-commit p50, or land within 3x of in-memory).
#
# Usage: scripts/bench_snapshot.sh [output.json]
#
# The benchmark harness (vendor/criterion) emits machine-readable records to
# the path named by $BENCH_JSON: an array of
#   {"id": "<group>/<benchmark>", "ns_per_iter": <median>, "samples": <n>}.

set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_arrangement.json}"
# The bench binary runs with the package directory as cwd, so hand it an
# absolute path.
case "${out}" in
    /*) abs_out="${out}" ;;
    *) abs_out="$(pwd)/${out}" ;;
esac

# Keep the committed snapshot around as the trajectory baseline.
baseline=""
if [ -s "${out}" ]; then
    baseline="$(mktemp)"
    cp "${out}" "${baseline}"
fi

scaling_json="$(mktemp)"
incremental_json="$(mktemp)"
assembly_json="$(mktemp)"
strip_json="$(mktemp)"
planner_json="$(mktemp)"
traffic_json="$(mktemp)"
wal_json="$(mktemp)"
trap 'rm -f "${scaling_json}" "${incremental_json}" "${assembly_json}" "${strip_json}" "${planner_json}" "${traffic_json}" "${wal_json}" ${baseline:+"${baseline}"}' EXIT

echo "running splitting_sweep_vs_naive scaling group" >&2
BENCH_JSON="${scaling_json}" cargo bench -p bench --bench scaling -- splitting_sweep_vs_naive
echo "running incremental_update and batch_update groups" >&2
BENCH_JSON="${incremental_json}" cargo bench -p bench --bench incremental
echo "running assemble_view_vs_copy and parallel_cold_build groups" >&2
BENCH_JSON="${assembly_json}" cargo bench -p bench --bench assembly
echo "running strip_sweep and phase_build groups" >&2
BENCH_JSON="${strip_json}" cargo bench -p bench --bench strip
echo "running planner_bindings group" >&2
BENCH_JSON="${planner_json}" cargo bench -p bench --bench planner
echo "running open-loop traffic harness" >&2
BENCH_JSON="${traffic_json}" cargo bench -p bench --bench traffic
echo "running wal_commit group (durable commit latency per sync policy)" >&2
BENCH_JSON="${wal_json}" cargo bench -p bench --bench wal

# Merge the JSON arrays (each file is one record per line between the
# bracket lines, so a line-level merge is exact).
{
    echo "["
    {
        sed -e '1d' -e '$d' "${scaling_json}"
        sed -e '1d' -e '$d' "${incremental_json}"
        sed -e '1d' -e '$d' "${assembly_json}"
        sed -e '1d' -e '$d' "${strip_json}"
        sed -e '1d' -e '$d' "${planner_json}"
        sed -e '1d' -e '$d' "${traffic_json}"
        sed -e '1d' -e '$d' "${wal_json}"
    } | sed -e 's/},\{0,1\}$/},/' -e '$ s/},$/}/'
    echo "]"
} > "${abs_out}"

if [ ! -s "${out}" ]; then
    echo "error: ${out} was not written" >&2
    exit 1
fi

extract_ns() { # file id -> ns_per_iter (empty if absent)
    grep -F "\"id\": \"$2\"" "$1" | grep -o '"ns_per_iter": [0-9.]*' | grep -o '[0-9.]*$' | head -1
}

# Sanity 1: the sweep beats the naive splitter at the largest grid size.
largest=$({ grep -o '"id": "[^"]*"' "${out}" || true; } | sed -n 's/.*naive\/grid\///; s/"//p' | sort -n | tail -1)
sweep_ns=$(extract_ns "${out}" "splitting_sweep_vs_naive/sweep/grid/${largest}")
naive_ns=$(extract_ns "${out}" "splitting_sweep_vs_naive/naive/grid/${largest}")
if [ -n "${sweep_ns}" ] && [ -n "${naive_ns}" ]; then
    faster=$(awk -v s="${sweep_ns}" -v n="${naive_ns}" 'BEGIN { print (s < n) ? "yes" : "no" }')
    echo "largest grid n=${largest}: sweep=${sweep_ns} ns, naive=${naive_ns} ns, sweep faster: ${faster}" >&2
    if [ "${faster}" != "yes" ]; then
        echo "error: sweep did not beat the naive splitter at n=${largest}" >&2
        exit 1
    fi
fi

# Sanity 2: incremental update -> read beats the full rebuild at the largest
# clustered size.
largest_inc=$({ grep -o '"id": "incremental_update/incremental/[0-9]*"' "${out}" || true; } \
    | grep -o '[0-9]*"' | tr -d '"' | sort -n | tail -1)
if [ -n "${largest_inc}" ]; then
    inc_ns=$(extract_ns "${out}" "incremental_update/incremental/${largest_inc}")
    full_ns=$(extract_ns "${out}" "incremental_update/full_rebuild/${largest_inc}")
    speedup=$(awk -v i="${inc_ns}" -v f="${full_ns}" 'BEGIN { printf "%.2f", f / i }')
    echo "incremental update at n=${largest_inc}: ${inc_ns} ns vs full rebuild ${full_ns} ns (${speedup}x)" >&2
    if [ "$(awk -v i="${inc_ns}" -v f="${full_ns}" 'BEGIN { print (i < f) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: incremental update did not beat the full rebuild at n=${largest_inc}" >&2
        exit 1
    fi
fi

# Sanity 2b: a k-insert transaction followed by one read beats k sequential
# insert+read rounds at the largest clustered size (the batched write path).
largest_batch=$({ grep -o '"id": "batch_update/batch/[0-9]*"' "${out}" || true; } \
    | grep -o '[0-9]*"' | tr -d '"' | sort -n | tail -1)
if [ -n "${largest_batch}" ]; then
    batch_ns=$(extract_ns "${out}" "batch_update/batch/${largest_batch}")
    seq_ns=$(extract_ns "${out}" "batch_update/sequential/${largest_batch}")
    speedup=$(awk -v b="${batch_ns}" -v s="${seq_ns}" 'BEGIN { printf "%.2f", s / b }')
    echo "batch update at n=${largest_batch}: ${batch_ns} ns vs sequential ${seq_ns} ns (${speedup}x)" >&2
    if [ "$(awk -v b="${batch_ns}" -v s="${seq_ns}" 'BEGIN { print (b < s) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: the batched transaction did not beat sequential inserts at n=${largest_batch}" >&2
        exit 1
    fi
fi

# Sanity 3: zero-copy view assembly beats the copying assembly at the
# largest component count.
largest_asm=$({ grep -o '"id": "assemble_view_vs_copy/view/[0-9]*"' "${out}" || true; } \
    | grep -o '[0-9]*"' | tr -d '"' | sort -n | tail -1)
if [ -n "${largest_asm}" ]; then
    view_ns=$(extract_ns "${out}" "assemble_view_vs_copy/view/${largest_asm}")
    copy_ns=$(extract_ns "${out}" "assemble_view_vs_copy/copy/${largest_asm}")
    speedup=$(awk -v v="${view_ns}" -v c="${copy_ns}" 'BEGIN { printf "%.2f", c / v }')
    echo "view assembly at ${largest_asm} components: ${view_ns} ns vs copy ${copy_ns} ns (${speedup}x)" >&2
    if [ "$(awk -v v="${view_ns}" -v c="${copy_ns}" 'BEGIN { print (v < c) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: view assembly did not beat the copying assembly at ${largest_asm} components" >&2
        exit 1
    fi
fi

# Sanity 4: the parallel cold build shows a measurable (>= 1.05x) speedup
# over the serial one — only meaningful on multi-core hosts; on a
# single-core host the extra-thread series measure pool overhead instead,
# so the gate is skipped there.
cores=$( (nproc || getconf _NPROCESSORS_ONLN || echo 1) 2>/dev/null | head -1 )
largest_par=$({ grep -o '"id": "parallel_cold_build/threads1/[0-9]*"' "${out}" || true; } \
    | grep -o '[0-9]*"' | tr -d '"' | sort -n | tail -1)
if [ -n "${largest_par}" ] && [ "${cores}" -gt 1 ]; then
    t1_ns=$(extract_ns "${out}" "parallel_cold_build/threads1/${largest_par}")
    tmax_ns=$(extract_ns "${out}" "parallel_cold_build/threadsmax/${largest_par}")
    speedup=$(awk -v a="${t1_ns}" -v b="${tmax_ns}" 'BEGIN { printf "%.2f", a / b }')
    echo "parallel cold build at n=${largest_par}: 1 thread ${t1_ns} ns vs max threads ${tmax_ns} ns (${speedup}x on ${cores} cores)" >&2
    if [ "$(awk -v a="${t1_ns}" -v b="${tmax_ns}" 'BEGIN { print (b * 1.05 < a) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: parallel cold build shows no measurable speedup over serial on a ${cores}-core host" >&2
        exit 1
    fi
elif [ -n "${largest_par}" ]; then
    echo "single-core host (${cores}): skipping the parallel cold-build speedup gate (series measure pool overhead here)" >&2
fi

# Sanity 5: the intra-component strip sweep on all threads beats the
# monolithic sweep on the dense single-component map — the workload where
# component-level parallelism cannot help. The required margin scales with
# the hardware: >1.5x on hosts with 4+ cores; on 2-3 cores (where the ideal
# ceiling is 2-3x and the serial stitching/seeding fraction makes 1.5x
# marginal) the strip path must simply win. On a single-core host every
# strip series measures decomposition overhead, so the gate is skipped.
largest_strip=$({ grep -o '"id": "strip_sweep/serial/[0-9]*"' "${out}" || true; } \
    | grep -o '[0-9]*"' | tr -d '"' | sort -n | tail -1)
if [ -n "${largest_strip}" ] && [ "${cores}" -gt 1 ]; then
    serial_ns=$(extract_ns "${out}" "strip_sweep/serial/${largest_strip}")
    smax_ns=$(extract_ns "${out}" "strip_sweep/threadsmax/${largest_strip}")
    if [ "${cores}" -ge 4 ]; then margin="1.5"; else margin="1.0"; fi
    speedup=$(awk -v a="${serial_ns}" -v b="${smax_ns}" 'BEGIN { printf "%.2f", a / b }')
    echo "strip sweep at n=${largest_strip}: serial ${serial_ns} ns vs max threads ${smax_ns} ns (${speedup}x on ${cores} cores, required >${margin}x)" >&2
    if [ "$(awk -v a="${serial_ns}" -v b="${smax_ns}" -v m="${margin}" 'BEGIN { print (b * m < a) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: strip sweep speedup not above ${margin}x over the monolithic sweep on a ${cores}-core host" >&2
        exit 1
    fi
elif [ -n "${largest_strip}" ]; then
    echo "single-core host (${cores}): skipping the strip-sweep speedup gate (series measure decomposition overhead here)" >&2
fi

# Sanity 6: the semi-join planner beats the cartesian-product enumerator by
# >10x on the anchored 2-variable open query at the largest benched size,
# and its work counters confirm the pruning (strictly fewer assignments
# tried than naive).
extract_value() { # file id -> value (empty if absent)
    grep -F "\"id\": \"$2\"" "$1" | grep -o '"value": [0-9.]*' | grep -o '[0-9.]*$' | head -1
}
largest_plan=$({ grep -o '"id": "planner_bindings/naive/[0-9]*"' "${out}" || true; } \
    | grep -o '[0-9]*"' | tr -d '"' | sort -n | tail -1)
if [ -n "${largest_plan}" ]; then
    planned_ns=$(extract_ns "${out}" "planner_bindings/planned/${largest_plan}")
    naive_ns=$(extract_ns "${out}" "planner_bindings/naive/${largest_plan}")
    speedup=$(awk -v p="${planned_ns}" -v n="${naive_ns}" 'BEGIN { printf "%.1f", n / p }')
    echo "planner at n=${largest_plan}: planned ${planned_ns} ns vs naive ${naive_ns} ns (${speedup}x, required >10x)" >&2
    if [ "$(awk -v p="${planned_ns}" -v n="${naive_ns}" 'BEGIN { print (p * 10 < n) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: the planner did not beat the naive enumerator by >10x at n=${largest_plan}" >&2
        exit 1
    fi
    planned_work=$(extract_value "${out}" "planner_bindings/assignments_planned/${largest_plan}")
    naive_work=$(extract_value "${out}" "planner_bindings/assignments_naive/${largest_plan}")
    probes=$(extract_value "${out}" "planner_bindings/index_probes/${largest_plan}")
    echo "planner work at n=${largest_plan}: ${planned_work} assignments (naive ${naive_work}), ${probes} index probes" >&2
    if [ -n "${planned_work}" ] && [ -n "${naive_work}" ]; then
        if [ "$(awk -v p="${planned_work}" -v n="${naive_work}" 'BEGIN { print (p < n) ? "yes" : "no" }')" != "yes" ]; then
            echo "error: the planner tried no fewer assignments than the naive enumerator" >&2
            exit 1
        fi
    fi
fi

# Sanity 8: the crossing-density seam model balances the per-strip event
# mass at least as well as the retired endpoint-quantile baseline at the
# largest strip-sweep size (skew = max/mean per-strip events; both counts
# are deterministic, so the comparison is exact).
largest_skew=$({ grep -o '"id": "strip_sweep/seam_skew_cost/[0-9]*"' "${out}" || true; } \
    | grep -o '[0-9]*"' | tr -d '"' | sort -n | tail -1)
if [ -n "${largest_skew}" ]; then
    cost_skew=$(extract_value "${out}" "strip_sweep/seam_skew_cost/${largest_skew}")
    quantile_skew=$(extract_value "${out}" "strip_sweep/seam_skew_quantile/${largest_skew}")
    echo "seam skew at n=${largest_skew}: cost model ${cost_skew} vs quantile ${quantile_skew} (max/mean per-strip events)" >&2
    if [ "$(awk -v c="${cost_skew}" -v q="${quantile_skew}" 'BEGIN { print (c <= q) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: the cost-model seams are more skewed than the quantile baseline at n=${largest_skew}" >&2
        exit 1
    fi
fi

# Sanity 9: the open-loop traffic harness produced coherent latency
# records for the mixed stream (p50 present and <= p99). Latency absolutes
# are host- and load-dependent, so they are recorded for the trajectory
# but not gated.
traffic_p50=$(extract_value "${out}" "traffic/mixed/p50_ns")
traffic_p99=$(extract_value "${out}" "traffic/mixed/p99_ns")
if [ -n "${traffic_p50}" ] && [ -n "${traffic_p99}" ]; then
    offered=$(extract_value "${out}" "traffic/offered_ops_per_s")
    achieved=$(extract_value "${out}" "traffic/achieved_ops_per_s")
    echo "traffic mixed stream: p50 ${traffic_p50} ns, p99 ${traffic_p99} ns (offered ${offered} ops/s, achieved ${achieved} ops/s)" >&2
    if [ "$(awk -v a="${traffic_p50}" -v b="${traffic_p99}" 'BEGIN { print (a <= b) ? "yes" : "no" }')" != "yes" ]; then
        echo "error: traffic p50 exceeds p99 — the latency accounting is broken" >&2
        exit 1
    fi
else
    echo "error: the traffic harness recorded no mixed-stream percentiles" >&2
    exit 1
fi

# Sanity 11: durability is affordable. The per-commit-fsync policy must
# keep its commit p50 within 20x of the in-memory commit p50 at 256
# regions, and the interval (group-commit) policy must recover most of the
# fsync cost: beat the per-commit p50 outright, or land within 3x of the
# in-memory p50 (on hosts whose storage stack makes fsync nearly free, the
# two policies are statistically tied, which the second arm accepts).
inmem_p50=$(extract_value "${out}" "wal_commit/inmem/p50_ns")
percommit_p50=$(extract_value "${out}" "wal_commit/percommit/p50_ns")
interval_p50=$(extract_value "${out}" "wal_commit/interval/p50_ns")
if [ -z "${inmem_p50}" ] || [ -z "${percommit_p50}" ] || [ -z "${interval_p50}" ]; then
    echo "error: wal_commit recorded no commit percentiles" >&2
    exit 1
fi
overhead=$(awk -v i="${inmem_p50}" -v p="${percommit_p50}" 'BEGIN { printf "%.2f", p / i }')
echo "durable commit p50: inmem ${inmem_p50} ns, percommit ${percommit_p50} ns (${overhead}x), interval ${interval_p50} ns" >&2
if [ "$(awk -v i="${inmem_p50}" -v p="${percommit_p50}" 'BEGIN { print (p < i * 20) ? "yes" : "no" }')" != "yes" ]; then
    echo "error: per-commit-fsync commit p50 exceeds 20x the in-memory commit p50" >&2
    exit 1
fi
if [ "$(awk -v i="${inmem_p50}" -v p="${percommit_p50}" -v g="${interval_p50}"         'BEGIN { print (g < p || g < i * 3) ? "yes" : "no" }')" != "yes" ]; then
    echo "error: the interval (group-commit) policy recovered none of the fsync cost" >&2
    exit 1
fi

# Perf trajectory: per-benchmark deltas against the committed snapshot; a
# >25% slowdown in any sweep/*, assemble_view_vs_copy/view/*,
# strip_sweep/serial/*, phase_build/threads1/* or planner_bindings/planned/*
# entry fails. The latency metrics traffic/read/p99_ns and
# wal_commit/percommit/p50_ns are tracked with a wider >150% threshold
# (open-loop p99s and fsync latencies are far noisier than median ns/iter).
# Other work-metric records ({id, value}) are informational and not gated
# here (the planner's assignments-tried gate above covers them).
if [ -n "${baseline}" ]; then
    echo "--- perf trajectory vs committed snapshot ---" >&2
    awk '
        function parse_line(line,   id, ns) {
            if (match(line, /"id": "[^"]*"/)) {
                id = substr(line, RSTART + 7, RLENGTH - 8)
                if (match(line, /"ns_per_iter": [0-9.]*/)) {
                    ns = substr(line, RSTART + 15, RLENGTH - 15)
                    return id SUBSEP ns
                }
                # Latency metrics gated on the trajectory ride the same
                # parse: their records carry "value" instead of
                # "ns_per_iter".
                if ((id == "traffic/read/p99_ns" || id == "wal_commit/percommit/p50_ns") \
                    && match(line, /"value": [0-9.]*/)) {
                    ns = substr(line, RSTART + 9, RLENGTH - 9)
                    return id SUBSEP ns
                }
            }
            return ""
        }
        NR == FNR { r = parse_line($0); if (r != "") { split(r, a, SUBSEP); old[a[1]] = a[2] } next }
        { r = parse_line($0); if (r != "") { split(r, a, SUBSEP); new[a[1]] = a[2]; order[++n] = a[1] } }
        END {
            regressions = 0
            for (i = 1; i <= n; i++) {
                id = order[i]
                if (!(id in old)) { printf "  %-55s %14.1f ns  (new)\n", id, new[id]; continue }
                delta = (new[id] - old[id]) / old[id] * 100
                flag = ""
                gated = index(id, "/sweep/") > 0 || index(id, "assemble_view_vs_copy/view/") > 0 \
                    || index(id, "strip_sweep/serial/") > 0 || index(id, "phase_build/threads1/") > 0 \
                    || index(id, "planner_bindings/planned/") > 0
                lat_gated = id == "traffic/read/p99_ns" || id == "wal_commit/percommit/p50_ns"
                if (gated && delta > 25) { flag = "  REGRESSION"; regressions++ }
                if (lat_gated && delta > 150) { flag = "  REGRESSION"; regressions++ }
                printf "  %-55s %14.1f ns  (%+.1f%%)%s\n", id, new[id], delta, flag
            }
            if (regressions > 0) {
                printf "error: %d gated benchmark(s) regressed beyond their threshold\n", regressions
                exit 1
            }
        }
    ' "${baseline}" "${out}" >&2
else
    echo "no committed snapshot found; skipping trajectory comparison" >&2
fi

echo "wrote ${out}" >&2
