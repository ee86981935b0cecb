#!/usr/bin/env bash
# The full offline CI gate for this workspace. Everything is deterministic
# and networkless; release mode matters (debug is 10-50x slower through the
# simulator). Run from the repository root:
#
#   ./ci.sh
#
# The `--workspace` flags are load-bearing: the repo root is itself a
# package (examples + integration tests), so bare cargo commands would
# silently skip the crates. Same gates as .claude/skills/verify/SKILL.md.
set -euo pipefail
cd "$(dirname "$0")"

# `exact_tests PKG [--ignored] NAME...` runs PKG's lib tests named in full
# (release, `--exact`) and fails unless every one of them passed: a renamed
# test would otherwise match nothing and the step would pass with 0 tests.
exact_tests() {
    local pkg=$1 flags=(--exact) out
    shift
    if [ "$1" = --ignored ]; then
        flags+=(--ignored)
        shift
    fi
    out=$(cargo test --release -p "$pkg" --lib -q -- "${flags[@]}" "$@" 2>&1) || {
        echo "$out"
        return 1
    }
    echo "$out"
    if ! grep -q "^test result: ok\. $# passed;" <<<"$out"; then
        echo "ci: expected $# test(s) of $pkg to run and pass: $*" >&2
        return 1
    fi
}

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> etagraph lint (static invariant gate; nonzero on any non-baselined"
echo "    finding OR any stale lint.allow entry — see DESIGN.md's catalogue)"
cargo run --release -p eta-cli -- lint

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --all-targets --release"
cargo build --workspace --all-targets --release

echo "==> cargo test --workspace --release -q (includes eta-serve's one-"
echo "    emitting-site-per-event source scan, the exactly-once saturation"
echo "    grid over both placements, eta-sim's launch allocation guard and"
echo "    eta-mem's O(1)-flush cache differential)"
cargo test --workspace --release -q

echo "==> UM eviction differential (victim index vs the scan-and-sort oracle,"
echo "    release mode: the gate that keeps every UM artifact byte-stable)"
exact_tests eta-mem \
    um::tests::differential_random_ops_match_scan_and_sort_oracle \
    um::tests::lazy_index_matches_oracle_across_stamp_resets_and_reprefetch

echo "==> dataset digest pins (all seven Table II analogs, topology and weighted"
echo "    copy, release mode: graph construction must not change one byte)"
exact_tests eta-graph --ignored datasets::tests::all_dataset_digests_are_pinned

echo "==> per-access differentials (release mode: recency-key cache vs the"
echo "    valid-bit oracle, the sector-run builder and the sectors a warp"
echo "    records vs per-access sort + dedup, closed-form bank conflicts vs"
echo "    the sort-based definition)"
exact_tests eta-mem \
    cache::tests::differential_random_ops_match_fill_oracle \
    cache::tests::flush_edges_match_fill_oracle \
    cache::tests::clock_at_the_key_bound_matches_fill_oracle \
    access::tests::coalesce_matches_per_access_sort_and_dedup
exact_tests eta-sim \
    warp::tests::bank_conflicts_match_the_sort_based_definition \
    warp::tests::recorded_sectors_match_sort_and_dedup_of_the_touched_words

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> committed artifacts are current (full suite, regenerated and compared"
echo "    byte for byte: the engine, multi-BFS plain/checkpointed/resumed and"
echo "    PageRank loops; fig7 pins the traversal kernel's SMP counters and"
echo "    sanitize launches all 18 kernels under the sanitizer; table1, table2,"
echo "    fig2, fig5 and table4 pin the representation overheads, the dataset"
echo "    inventory, the per-iteration frontiers and the BFS activation; fig4"
echo "    and fig6 pin the SSSP transfer/compute overlap and the ablations;"
echo "    overload pins the standard qos profile through the full drill;"
echo "    table5 pins the UM migration batch sizes with and without prefetch;"
echo "    transfer pins every transfer mode, its oversubscribed section the"
echo "    paging path; the slower table3 and shard are the pre-merge"
echo "    'report all --check reports/' step of .claude/skills/verify/SKILL.md)"
cargo run --release -p eta-bench --bin report -- \
    profile serve faults chaos extras lint fig7 sanitize \
    table1 table2 fig2 fig5 table4 fig4 fig6 overload table5 transfer --check reports/

echo "==> report profile smoke run (quick suite, temp dir)"
PROFILE_OUT="$(mktemp -d)"
trap 'rm -rf "$PROFILE_OUT"' EXIT
cargo run --release -p eta-bench --bin report -- profile --quick --out "$PROFILE_OUT" >/dev/null
test -s "$PROFILE_OUT/profile.txt" && test -s "$PROFILE_OUT/profile.json"
grep -q "transfer/compute overlap" "$PROFILE_OUT/profile.txt"

echo "==> report faults smoke run (quick suite, temp dir)"
cargo run --release -p eta-bench --bin report -- faults --quick --out "$PROFILE_OUT" >/dev/null
test -s "$PROFILE_OUT/faults.txt" && test -s "$PROFILE_OUT/faults.json"
grep -q "availability" "$PROFILE_OUT/faults.txt"
grep -q "quarantine" "$PROFILE_OUT/faults.txt"

echo "==> chaos drill smoke run (quick suite, twice, byte-identical)"
cargo run --release -p eta-bench --bin report -- chaos --quick --out "$PROFILE_OUT" >/dev/null
grep -q ", 0 lost, 0 wrong " "$PROFILE_OUT/chaos.txt"
mv "$PROFILE_OUT/chaos.json" "$PROFILE_OUT/chaos.first.json"
cargo run --release -p eta-bench --bin report -- chaos --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/chaos.first.json" "$PROFILE_OUT/chaos.json"

echo "==> overload drill gate (quick suite: fails on any lost or double-counted"
echo "    request, or a saturated cell where qos does not beat the baseline)"
cargo run --release -p eta-bench --bin report -- overload --quick --out "$PROFILE_OUT" >/dev/null
grep -q ", 0 lost, 0 double-counted-or-wrong" "$PROFILE_OUT/overload.txt"
grep -Eq '^saturated cells \(>= 4x\): ([0-9]+)/\1 ' "$PROFILE_OUT/overload.txt"

echo "==> report shard smoke run (quick suite, twice, byte-identical)"
cargo run --release -p eta-bench --bin report -- shard --quick --out "$PROFILE_OUT" >/dev/null
grep -q "0 mismatches" "$PROFILE_OUT/shard.txt"
mv "$PROFILE_OUT/shard.json" "$PROFILE_OUT/shard.first.json"
cargo run --release -p eta-bench --bin report -- shard --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/shard.first.json" "$PROFILE_OUT/shard.json"

echo "==> report transfer smoke run (quick suite, twice, byte-identical)"
cargo run --release -p eta-bench --bin report -- transfer --quick --out "$PROFILE_OUT" >/dev/null
grep -q "0 label mismatches" "$PROFILE_OUT/transfer.txt"
grep -q "zero-copy fastest static on 2/2 sparse cells" "$PROFILE_OUT/transfer.txt"
grep -q "adaptive beats every static mode" "$PROFILE_OUT/transfer.txt"
grep -q '"crossover_observed": true' "$PROFILE_OUT/transfer.json"
grep -q '"adaptive_within_tolerance": true' "$PROFILE_OUT/transfer.json"
grep -q '"adaptive_beats_every_static": true' "$PROFILE_OUT/transfer.json"
grep -q '"adaptive_beats_every_static_oversubscribed": true' "$PROFILE_OUT/transfer.json"
mv "$PROFILE_OUT/transfer.json" "$PROFILE_OUT/transfer.first.json"
cargo run --release -p eta-bench --bin report -- transfer --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/transfer.first.json" "$PROFILE_OUT/transfer.json"

echo "==> host-parallelism byte-identity (same run at 1, 2 and 4 host threads,"
echo "    under every placement: the default, sanitized, and each --transfer mode;"
echo "    the web graph is the deep regime: hundreds of one-block launches,"
echo "    which run inline; the scale-15 graph is the wide one: launches of"
echo "    many waves with a ragged tail, where record of later blocks overlaps"
echo "    the cache drains of earlier ones)"
hp_start=$SECONDS
cargo run --release -p eta-cli -- generate rmat --scale 10 --edges 30000 \
    --max-weight 64 --seed 11 --out "$PROFILE_OUT/hp.rmat.etag" >/dev/null
cargo run --release -p eta-cli -- generate web --vertices 4000 --edges 12000 \
    --communities 128 --max-weight 64 --seed 11 --out "$PROFILE_OUT/hp.web.etag" >/dev/null
cargo run --release -p eta-cli -- generate rmat --scale 15 --edges 500000 \
    --max-weight 64 --seed 17 --out "$PROFILE_OUT/hp.waves.etag" >/dev/null
for graph in rmat web waves; do
    for alg in bfs sssp; do
        for extra in "" "--sanitize" "--transfer adaptive" "--transfer demand" \
            "--transfer prefetch" "--transfer explicit" "--transfer zerocopy"; do
            for threads in 1 2 4; do
                # shellcheck disable=SC2086
                cargo run --release -p eta-cli -- run "$PROFILE_OUT/hp.$graph.etag" \
                    --alg "$alg" --host-threads "$threads" $extra --json \
                    >"$PROFILE_OUT/hp.$threads.json"
            done
            cmp "$PROFILE_OUT/hp.1.json" "$PROFILE_OUT/hp.2.json"
            cmp "$PROFILE_OUT/hp.1.json" "$PROFILE_OUT/hp.4.json"
        done
    done
done
# The device-group and batched-BFS paths of `run`, on the same graphs: the
# JSON, and the group PageRank's trace file, must not depend on the threads.
# SSSP on 4 devices folds four members' counters after a weighted relax.
for graph in rmat waves; do
    for program in "--alg bfs --devices 2" "--alg sssp --devices 4" \
        "--alg pagerank --iterations 3 --devices 2 --profile $PROFILE_OUT/hp.trace.json" \
        "--sources 0,1,7"; do
        rm -f "$PROFILE_OUT"/hp.*trace.json
        for threads in 1 2 4; do
            # shellcheck disable=SC2086
            cargo run --release -p eta-cli -- run "$PROFILE_OUT/hp.$graph.etag" \
                $program --host-threads "$threads" --json >"$PROFILE_OUT/hp.$threads.json"
            if [ -e "$PROFILE_OUT/hp.trace.json" ]; then
                mv "$PROFILE_OUT/hp.trace.json" "$PROFILE_OUT/hp.$threads.trace.json"
            fi
        done
        cmp "$PROFILE_OUT/hp.1.json" "$PROFILE_OUT/hp.2.json"
        cmp "$PROFILE_OUT/hp.1.json" "$PROFILE_OUT/hp.4.json"
        if [ -e "$PROFILE_OUT/hp.1.trace.json" ]; then
            cmp "$PROFILE_OUT/hp.1.trace.json" "$PROFILE_OUT/hp.2.trace.json"
            cmp "$PROFILE_OUT/hp.1.trace.json" "$PROFILE_OUT/hp.4.trace.json"
        fi
    done
done
echo "    host-parallelism loop: $((SECONDS - hp_start)) s"
# Serving, qos off and on: the burst on one device sheds 232 requests, on
# two it throttles 260 tenant requests; neither may depend on the threads.
for serve in "--requests 20 --devices 2" \
    "--qos --arrival burst --rate 100000 --requests 800 --devices 1" \
    "--qos --arrival burst --rate 100000 --requests 800 --devices 2"; do
    for threads in 1 2 4; do
        # shellcheck disable=SC2086
        cargo run --release -p eta-cli -- serve --graph rmat10 $serve \
            --host-threads "$threads" --json >"$PROFILE_OUT/hp.serve.$threads.json"
    done
    cmp "$PROFILE_OUT/hp.serve.1.json" "$PROFILE_OUT/hp.serve.2.json"
    cmp "$PROFILE_OUT/hp.serve.1.json" "$PROFILE_OUT/hp.serve.4.json"
done

echo "==> fault parity (one launch path: a hang plan is a typed error under"
echo "    every --framework, never a run that exits 0; a 200 000-deep plan"
echo "    exits 2, not 134)"
echo '{"hangs":[{"device":0,"start_ns":0,"end_ns":100000000000,"budget_ns":1000}]}' \
    >"$PROFILE_OUT/hang.json"
for fw in eta tigr gunrock cusha chunkstream; do
    if cargo run --release -p eta-cli -- run "$PROFILE_OUT/hp.rmat.etag" --alg bfs \
        --framework "$fw" --faults "$PROFILE_OUT/hang.json" >"$PROFILE_OUT/hang.out" 2>&1; then
        echo "ci: --framework $fw swallowed the hang plan" >&2
        exit 1
    fi
    grep -q "kernel_hang" "$PROFILE_OUT/hang.out"
done
# A hostile plan (200 000 nested `[`) is a named argument error (exit 2),
# not a stack overflow (abort, 134). The binary runs directly: `cargo run`
# would report a signal death as its own exit code. The loop above built it.
head -c 200000 /dev/zero | tr '\0' '[' >"$PROFILE_OUT/deep.json"
status=0
"${CARGO_TARGET_DIR:-target}/release/etagraph" run "$PROFILE_OUT/hp.rmat.etag" --alg bfs \
    --faults "$PROFILE_OUT/deep.json" >"$PROFILE_OUT/deep.out" 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "ci: a 200000-deep fault plan exited $status, not 2" >&2
    exit 1
fi
grep -q "nesting deeper than 64 levels" "$PROFILE_OUT/deep.out"

echo "==> sharded-vs-single differential (every program's CLI answer digest"
echo "    must match across group sizes 1, 2 and 4)"
cargo run --release -p eta-cli -- generate rmat --scale 10 --edges 30000 \
    --max-weight 64 --seed 7 --out "$PROFILE_OUT/g.etag" >/dev/null
for alg in bfs sssp pagerank; do
    single="$(cargo run --release -p eta-cli -- run "$PROFILE_OUT/g.etag" \
        --alg "$alg" | grep -E '(labels|ranks) digest')"
    for devices in 2 4; do
        sharded="$(cargo run --release -p eta-cli -- run "$PROFILE_OUT/g.etag" \
            --alg "$alg" --devices "$devices" | grep -E '(labels|ranks) digest')"
        if [ -z "$single" ] || [ "$single" != "$sharded" ]; then
            echo "ci: $alg digest diverges on $devices devices: $single vs $sharded" >&2
            exit 1
        fi
    done
done

echo "ci: all gates passed"
