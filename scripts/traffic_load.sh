#!/usr/bin/env bash
# Open-loop traffic driver for the topodb facade.
#
# Thin wrapper around the `traffic` bench (crates/bench/benches/traffic.rs):
# replays a mixed snapshot-read / prepared-query / write-transaction
# workload from many client threads at a configured per-client arrival
# rate, then prints the per-class p50/p99 latency report. Latency is
# measured from each operation's *scheduled* arrival time, so a server
# that falls behind shows the backlog as queueing delay instead of
# silently throttling the offered load.
#
# Usage: scripts/traffic_load.sh [clients [rate [ops [mix [map [wal [sync [fault_rate]]]]]]]]
#
#   clients  concurrent client threads      (default: min(cores, 8), >= 2)
#   rate     ops/second offered per client  (default: 200)
#   ops      operations issued per client   (default: 400)
#   mix      workload shape                 (read-heavy | txn-heavy;
#                                            default: read-heavy, 60/30/10
#                                            read/query/txn; txn-heavy is
#                                            30/30/40 — the commit pipeline
#                                            under pressure)
#   map      base map                       (small | clustered4096;
#                                            default: small, 8 clusters x 4
#                                            regions; clustered4096 is 64
#                                            clusters x 64 regions = 4096
#                                            base regions)
#   wal      durability                     (off | on; default: off. `on`
#                                            commits through a write-ahead
#                                            log in a throwaway temp dir,
#                                            so the txn-class p50/p99
#                                            include the append + sync)
#   sync     wal sync policy                (percommit | interval; default:
#                                            percommit, an fsync inside
#                                            every commit; interval group-
#                                            commits with at most one fsync
#                                            per 5 ms window)
#   fault_rate  storage chaos                (0.0..1.0; default: 0. Non-zero
#                                            moves the log onto the
#                                            in-memory fault-injecting
#                                            SimFs backend and fails each
#                                            log write transiently with
#                                            this probability; the report
#                                            gains traffic/wal/* retry and
#                                            degradation counters)
#
# The machine-readable {id, value} records land in the file named by
# $BENCH_JSON if set (default: a temp file, printed at exit). To fold a
# run into the committed perf trajectory use scripts/bench_snapshot.sh,
# which runs this harness at the defaults.

set -euo pipefail

cd "$(dirname "$0")/.."

out="${BENCH_JSON:-$(mktemp /tmp/traffic_XXXX.json)}"
case "${out}" in
    /*) abs_out="${out}" ;;
    *) abs_out="$(pwd)/${out}" ;;
esac

env_args=()
[ "$#" -ge 1 ] && env_args+=("TRAFFIC_CLIENTS=$1")
[ "$#" -ge 2 ] && env_args+=("TRAFFIC_RATE=$2")
[ "$#" -ge 3 ] && env_args+=("TRAFFIC_OPS=$3")
[ "$#" -ge 4 ] && env_args+=("TRAFFIC_MIX=$4")
[ "$#" -ge 5 ] && env_args+=("TRAFFIC_MAP=$5")
[ "$#" -ge 6 ] && env_args+=("TRAFFIC_WAL=$6")
[ "$#" -ge 7 ] && env_args+=("TRAFFIC_SYNC=$7")
[ "$#" -ge 8 ] && env_args+=("TRAFFIC_FAULT_RATE=$8")

env "${env_args[@]+"${env_args[@]}"}" BENCH_JSON="${abs_out}" \
    cargo bench -p bench --bench traffic

echo "traffic records written to ${abs_out}" >&2
