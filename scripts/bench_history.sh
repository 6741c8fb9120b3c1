#!/usr/bin/env bash
# The topobench trajectory: run the repository's benchmark once and append
# the result as one line to BENCH_topobench.jsonl (append-only, one JSON
# object per run, at the repository root).
#
#   scripts/bench_history.sh [--label TEXT] [--checkout DIR] [run.sh arguments]
#
# A line holds the commit the benchmark was built from (suffixed `+dirty` if
# the tree had uncommitted changes), the rustc version, the core count, the
# seed and run length, the median host factor over the run's workloads, and for every
# workload that ran its seven end-to-end metrics (each itself the median of
# the workload's operations, at reference-host speed; see
# benchmark/README.md). Every perf change appends a before/after pair:
#
#   scripts/bench_history.sh --label "PR n parent" --checkout ../parent-copy
#   scripts/bench_history.sh --label "PR n change"
#
# `--checkout DIR` benchmarks another checkout of this repository (a clone of
# the parent commit, say) and still appends here. Everything else is handed
# to benchmark/run.sh (`--seed N`, `--seconds N`, `--workload NAME`); traced
# runs carry no end-to-end metrics and are refused. The exit code is
# run.sh's: a run that fails its correctness gate records nothing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
history="${root}/BENCH_topobench.jsonl"
checkout="${root}"
label=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --label) label="$2"; shift 2 ;;
        --checkout) checkout="$(cd "$2" && pwd)"; shift 2 ;;
        --trace) echo "bench_history.sh records end-to-end runs only" >&2; exit 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

log="$(mktemp)"
trap 'rm -f "${log}"' EXIT
rm -f "${checkout}"/benchmark/out/report-*-end-to-end.json
bash "${checkout}/benchmark/run.sh" "${args[@]}" | tee "${log}"

# The value of a `"key": ` field (string or number) in a one-line JSON text.
field() {
    sed -n "s/.*\"$1\": \(\"[^\"]*\"\|[^,}]*\).*/\1/p" <<<"$2" | head -n 1
}

commit="$(git -C "${checkout}" rev-parse --short HEAD)"
git -C "${checkout}" diff --quiet HEAD -- || commit="${commit}+dirty"
host_factor="$(sed -n 's/^# host factor \([0-9.]*\):.*/\1/p' "${log}" | sort -n \
    | awk '{ v[NR] = $1 } END { if (NR) print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; else print "null" }')"

workloads=""
header=""
for report in "${checkout}"/benchmark/out/report-*-end-to-end.json; do
    [ -e "${report}" ] || { echo "no end-to-end report in ${checkout}/benchmark/out" >&2; exit 1; }
    text="$(cat "${report}")"
    header="${text}"
    metrics=""
    for metric in setup_s ops_per_s read_p50_us query_p50_us fresh_query_p50_us txn_p50_us recovery_s; do
        value="$(sed -n "s/.*\"${metric}\": {\"value\": \([^,}]*\).*/\1/p" <<<"${text}")"
        metrics="${metrics}${metrics:+, }\"${metric}\": ${value:-null}"
    done
    workloads="${workloads}${workloads:+, }$(field workload "${text}"): {${metrics}}"
done

printf '{"commit": "%s", "label": "%s", "rustc": %s, "nproc": %s, "seed": %s, "seconds": %s, "smoke": %s, "host_factor": %s, "workloads": {%s}}\n' \
    "${commit}" "${label}" "$(field rustc "${header}")" "$(field nproc "${header}")" \
    "$(field seed "${header}")" "$(field seconds "${header}")" "$(field smoke "${header}")" "${host_factor}" "${workloads}" >>"${history}"
echo "appended to ${history}:" >&2
tail -n 1 "${history}" >&2
