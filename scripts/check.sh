#!/usr/bin/env bash
# The repo's verification gate, in four stages:
#
#   1. static   — dpss-lint + dpss-arch over src/, BEFORE the build:
#                 both finish in under a second, so layer violations and
#                 privacy-hatch leaks fail fast (the arch tree run
#                 re-runs post-configure with compile_commands coverage
#                 as the dpss_arch_tree ctest)
#   2. tier-1   — full build (with -Werror for src/) + full ctest suite
#   3. asan     — the FULL ctest suite again under ASan+UBSan
#                 (UBSan non-recoverable, so any UB fails the test)
#   4. tsan     — the concurrency-sensitive subset under ThreadSanitizer
#                 (obs layer, thread pool, churn/chaos/rpc-policy tests;
#                 the full suite under TSan is too slow for a local gate)
#
# Clang's -Wthread-safety analysis over the annotated mutexes needs a
# clang toolchain and runs in CI (.github/workflows/check.yml); if
# clang++ is on PATH we run it here too.
#
# Run from the repo root. Set DPSS_CHECK_SKIP_SANITIZERS=1 for a quick
# tier-1+lint pass; `scripts/check.sh tsan` runs stage 4 alone and
# `scripts/check.sh admin-smoke` the admin-plane smoke against an existing
# build/ (CI runs both that way).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

tsan_stage() {
  echo "== tsan: obs_test + thread_pool + pss fold + net/cluster subsets under -fsanitize=thread =="
  cmake -B build-tsan -S . -DDPSS_SANITIZE=thread >/dev/null
  cmake --build build-tsan --target obs_test common_test cluster_test net_test pss_test -j "$JOBS" >/dev/null
  # obs_test covers the span ring, trace collector and slow-query log; the
  # http admin tests exercise the admin loop thread against client threads.
  ./build-tsan/tests/obs_test
  ./build-tsan/tests/net_test --gtest_filter='HttpAdminTest.*'
  ./build-tsan/tests/common_test --gtest_filter='ThreadPool.*'
  # Concurrent slice folds sharing the metrics registry and the randomizer
  # pool's refill/drain races are the crypto layer's only concurrency.
  ./build-tsan/tests/pss_test --gtest_filter='FoldConcurrency.*:RandomizerPoolConcurrency.*'
  # ClusterChaos.Sweep* (50 whole-cluster stories) is deliberately excluded:
  # it is deterministic single-driver logic and far too slow under TSan.
  ./build-tsan/tests/cluster_test --gtest_filter='Concurrency.*:RpcPolicy.*:CallPolicyTest.*:ChaosPolicy.*:ChaosTransport.*:Chaos.IdenticalSeedReproducesIdenticalSchedule:ClusterChaos.SingleSeedReplaysCombinedFaultStory:ClusterChaos.SlowReadsDelayLoadsButQueriesStayCorrect:ClusterChaos.RealtimeCrashLosesUnpersistedStopFlushes'
}

admin_smoke_stage() {
  echo "== admin smoke: boot a node, scrape /healthz and /metrics, SIGTERM exits 0 =="
  python3 - build/src/net/dpss_node <<'PY'
import socket, subprocess, sys, time, urllib.request

node_bin = sys.argv[1]

def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port

rpc_port, admin_port = free_port(), free_port()
proc = subprocess.Popen([
    node_bin, "--role", "coordinator", "--name", "smoke",
    "--listen", f"127.0.0.1:{rpc_port}", "--admin-port", str(admin_port),
])
try:
    deadline = time.time() + 20
    while True:
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{admin_port}/healthz", timeout=2) as r:
                body = r.read().decode()
                if r.status != 200 or '"status":"ok"' not in body:
                    sys.exit(f"/healthz bad: {r.status} {body!r}")
                break
        except OSError:
            if time.time() > deadline:
                sys.exit("admin /healthz never answered")
            time.sleep(0.2)
    with urllib.request.urlopen(
            f"http://127.0.0.1:{admin_port}/metrics", timeout=2) as r:
        text = r.read().decode()
    if not text.strip():
        sys.exit("/metrics came back empty")
    for needle in ("# TYPE", "dpss_rpc_attempts", "dpss_net_server_accepts"):
        if needle not in text:
            sys.exit(f"/metrics is missing {needle!r}")
finally:
    proc.terminate()
    status = proc.wait(timeout=10)
if status != 0:
    sys.exit(f"node exited with status {status} after SIGTERM")
print(f"admin smoke OK: /healthz + /metrics on 127.0.0.1:{admin_port}, exit 0")
PY
}

if [[ "${1:-}" == "tsan" ]]; then tsan_stage; exit 0; fi
if [[ "${1:-}" == "admin-smoke" ]]; then admin_smoke_stage; exit 0; fi

echo "== static: dpss-lint + dpss-arch (fail fast, pre-build) =="
python3 scripts/dpss_lint.py --selftest
python3 scripts/dpss_lint.py --check-fixtures tests/lint_fixtures
python3 scripts/dpss_lint.py
python3 scripts/dpss_arch.py --selftest
python3 scripts/dpss_arch.py --no-compile-commands

echo
echo "== tier-1: full build (DPSS_WERROR=ON) + ctest =="
cmake -B build -S . -DDPSS_WERROR=ON >/dev/null
cmake --build build -j "$JOBS" >/dev/null
(cd build && ctest --output-on-failure -j "$JOBS")

echo
echo "== multi-process: loopback cluster + elastic join->drain + leader-kill failover =="
# MultiprocessClusterTest includes ElasticScaleOutAndDrainUnderLoad
# (runtime 2->8->2 scale under continuous query/PSS load) and
# CoordinatorFailoverOnLeaderKill (SIGKILL the leader mid-drain) — the
# membership smoke this gate requires.
./build/tests/net_test --gtest_filter='MultiprocessClusterTest.*'

echo
admin_smoke_stage

echo
echo "== bench smoke: pss hot-path speedup ratios vs BENCH_pss.json =="
python3 scripts/check_bench_pss.py

echo
echo "== bench smoke: rebalancer invariants vs BENCH_rebalance.json =="
python3 scripts/check_bench_rebalance.py

echo
echo "== bench smoke: subscription matcher invariants vs BENCH_subs.json =="
python3 scripts/check_bench_subs.py

echo
echo "== clang-tidy: curated .clang-tidy profile over src/ TUs =="
python3 scripts/run_clang_tidy.py --build-dir build

if [[ "${DPSS_CHECK_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo
  echo "sanitizer stages skipped (DPSS_CHECK_SKIP_SANITIZERS=1)"
  exit 0
fi

echo
echo "== asan+ubsan: full ctest suite under -fsanitize=address,undefined =="
cmake -B build-asan -S . -DDPSS_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" >/dev/null
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo
tsan_stage

if command -v clang++ >/dev/null 2>&1; then
  echo
  echo "== clang thread-safety: -Werror=thread-safety over annotated mutexes =="
  cmake -B build-tsa -S . -DDPSS_THREAD_SAFETY=ON \
        -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-tsa -j "$JOBS" >/dev/null
else
  echo
  echo "clang++ not found; thread-safety analysis left to CI"
fi

echo
echo "all checks passed"
