#!/bin/sh
# CI driver: everything must build (including benches and examples) and
# every test suite must pass — under both runtime executors. Run from
# anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune build =="
dune build

echo "== dune runtest (sequential executor) =="
DSTRESS_JOBS=1 dune runtest

# DSTRESS_JOBS switches every Engine.default_config to the domain-pool
# executor; --force re-runs suites the sequential pass already cached.
echo "== dune runtest (parallel executor, 4 domains) =="
DSTRESS_JOBS=4 dune runtest --force

CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

# The full quick suite, exported through the typed result schema. The
# export must decode as a dstress-bench/1 document, a self-compare must
# report zero deltas, and the seed-deterministic counters (AND gates,
# OT batches, traffic bytes, ...) must exactly match the committed
# baselines — wall-clock numbers are machine-dependent and not gated
# here (see bin/bench_diff.ml --threshold for same-machine gating).
echo "== bench (quick, all suites, --json) =="
dune exec bench/main.exe -- --quick --json "$CI_TMP/bench.json"
dune exec test/json_check.exe -- --bench "$CI_TMP/bench.json"

echo "== bench_diff self-compare =="
dune exec bin/bench_diff.exe -- "$CI_TMP/bench.json" "$CI_TMP/bench.json"

echo "== bench_diff counter drift vs committed baselines =="
# To refresh a committed baseline after an intentional counter change,
# rewrite it in place from a fresh quick run (one command, no manual
# copying — the flag keeps the baseline's one-suite scope):
#   dune exec bench/main.exe -- --quick --json /tmp/bench.json
#   dune exec bin/bench_diff.exe -- --write-baseline \
#     bench/baselines/BENCH_<name>.json /tmp/bench.json
for baseline in bench/baselines/BENCH_*.json; do
  echo "-- $baseline"
  dune exec bin/bench_diff.exe -- --counters-only "$baseline" "$CI_TMP/bench.json"
done

# Crypto backend smoke: a tiny EN run with real (Crypto-mode) base OTs on
# the RFC 7919 2048-bit group — the full batched hot path (fixed-base
# windows, block re-randomization, shared-c1 decryption, OT key exchange)
# at production parameters. Sized to ~6 session pairs so it stays around
# a minute.
echo "== crypto backend smoke (--ot crypto --group ffdhe2048) =="
dune exec bin/dstress.exe -- stress --core 2 --periphery 1 -i 1 -k 1 \
  --ot crypto --group ffdhe2048 > /dev/null

# Observability smoke: the same faulty run under every executor backend —
# including the multi-process distributed one — must export byte-identical
# trace/metrics files, and they must parse as JSON.
echo "== obs smoke (trace/metrics determinism across executors) =="
OBS_TMP="$CI_TMP"
for exec in sequential parallel:4 distributed:2; do
  tag="$(echo "$exec" | tr ':' '.')"
  dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
    --fault-crashes 2 --executor "$exec" --slice-width 64 --obs-level full \
    --trace "$OBS_TMP/trace.$tag.json" --metrics "$OBS_TMP/metrics.$tag.json" \
    > /dev/null
done
cmp "$OBS_TMP/trace.sequential.json" "$OBS_TMP/trace.parallel.4.json"
cmp "$OBS_TMP/trace.sequential.json" "$OBS_TMP/trace.distributed.2.json"
cmp "$OBS_TMP/metrics.sequential.json" "$OBS_TMP/metrics.parallel.4.json"
cmp "$OBS_TMP/metrics.sequential.json" "$OBS_TMP/metrics.distributed.2.json"
dune exec test/json_check.exe -- \
  "$OBS_TMP/trace.sequential.json" "$OBS_TMP/metrics.sequential.json"

# Offline/online smoke: an EN run with preprocessing (and the on-disk
# triple cache) must be observationally identical to the inline run —
# the tick-domain trace/metrics exports byte-compare. The third run
# starts a fresh process against the populated cache dir, so it proves
# the disk-reload path too (--triple-cache implies --preprocess).
echo "== preprocess smoke (offline/online observational identity) =="
dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
  --slice-width 64 --obs-level full \
  --trace "$CI_TMP/trace.inline.json" --metrics "$CI_TMP/metrics.inline.json" \
  > /dev/null
dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
  --slice-width 64 --obs-level full --preprocess \
  --triple-cache "$CI_TMP/triples" \
  --trace "$CI_TMP/trace.pre.json" --metrics "$CI_TMP/metrics.pre.json" \
  > /dev/null
cmp "$CI_TMP/trace.inline.json" "$CI_TMP/trace.pre.json"
cmp "$CI_TMP/metrics.inline.json" "$CI_TMP/metrics.pre.json"
dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
  --slice-width 64 --obs-level full --triple-cache "$CI_TMP/triples" \
  --trace "$CI_TMP/trace.reload.json" --metrics "$CI_TMP/metrics.reload.json" \
  > /dev/null
cmp "$CI_TMP/trace.inline.json" "$CI_TMP/trace.reload.json"
cmp "$CI_TMP/metrics.inline.json" "$CI_TMP/metrics.reload.json"

# Distributed smoke: the two-process transport demo (real exec'd worker
# over a named socket), then one engine run per wire-fault kind — each
# must recover (respawn/fence/degrade onto live workers) and still print
# a report, with the wall-domain counters exported separately.
echo "== distributed smoke (transport demo + wire-fault matrix) =="
dune exec bin/dstress.exe -- transport --pings 100 > /dev/null
for kind in disconnect stall partition; do
  echo "-- wire fault: $kind"
  dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
    --executor distributed:2 --wire-faults "$kind" \
    --transport-metrics "$CI_TMP/transport.$kind.json" > /dev/null
  dune exec test/json_check.exe -- "$CI_TMP/transport.$kind.json"
done

# Service smoke: a daemon with a persistent worker pool serves three
# concurrent requests; each response's tick-domain trace/metrics must
# byte-match a solo `stress` run of the same seeded config, and SIGTERM
# must drain the daemon cleanly (exit 0). The daemon binary is invoked
# directly (not through `dune exec`) so $! is the daemon's own pid and
# the TERM signal reaches it, not a wrapper.
echo "== service smoke (daemon + concurrent requests + drain) =="
dune exec bin/dstress.exe -- stress --core 2 --periphery 3 -i 2 \
  --slice-width 64 --obs-level full \
  --trace "$CI_TMP/solo.trace.json" --metrics "$CI_TMP/solo.metrics.json" \
  > /dev/null
SVC_SOCK="$CI_TMP/dstress-ci.sock"
_build/default/bin/dstress.exe serve --socket "$SVC_SOCK" --service-workers 2 \
  --log-level debug > "$CI_TMP/serve.log" 2> "$CI_TMP/serve.err" &
SVC_PID=$!
REQ_PIDS=""
for i in 1 2 3; do
  _build/default/bin/dstress.exe request --socket "$SVC_SOCK" \
    --core 2 --periphery 3 -i 2 --slice-width 64 \
    --trace "$CI_TMP/svc.$i.trace.json" --metrics "$CI_TMP/svc.$i.metrics.json" \
    > /dev/null &
  REQ_PIDS="$REQ_PIDS $!"
done
for pid in $REQ_PIDS; do wait "$pid"; done
for i in 1 2 3; do
  cmp "$CI_TMP/solo.trace.json" "$CI_TMP/svc.$i.trace.json"
  cmp "$CI_TMP/solo.metrics.json" "$CI_TMP/svc.$i.metrics.json"
done
# Telemetry scrape mid-run: the Stats admin request must answer on the
# same socket, its JSON document must validate, and the Prometheus text
# must report exactly the three requests just served. The structured
# log on stderr must carry their trace IDs end to end.
echo "== stats scrape =="
_build/default/bin/dstress.exe stats --socket "$SVC_SOCK" \
  --json "$CI_TMP/stats.json" > "$CI_TMP/stats.prom"
dune exec test/json_check.exe -- "$CI_TMP/stats.json"
grep -q '^dstress_service_requests_enqueued 3$' "$CI_TMP/stats.prom"
grep -q '^dstress_service_requests_completed 3$' "$CI_TMP/stats.prom"
grep -q '^dstress_service_request_s_count 3$' "$CI_TMP/stats.prom"
grep '^dstress_service_request_s{quantile="0.99"} ' "$CI_TMP/stats.prom" | grep -qv ' 0$'
grep -q '^dstress_worker_up{worker="0"' "$CI_TMP/stats.prom"
grep -q 'trace=3 msg="request finished"' "$CI_TMP/serve.err"
kill -TERM "$SVC_PID"
wait "$SVC_PID"

# Benchmark smoke: a few seconds of each workload BENCHMARK.json names.
# perfbench exits nonzero unless every query passes its correctness
# gate — the noised output lies within the noise bound of the cleartext
# result, repeats of a config are bit-identical, and daemon responses
# match in-process runs — so a GMW kernel regression fails here end to
# end, daemon included.
echo "== perfbench smoke (every workload, correctness gate) =="
for workload in en-rounds egj-transfer daemon-small; do
  echo "-- $workload"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 0 \
    > "$CI_TMP/perfbench.$workload.out"
  tail -n 1 "$CI_TMP/perfbench.$workload.out"
done

echo "CI OK"
