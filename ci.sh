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
cargo test --release -p eta-mem --lib -q -- um::tests::differential um::tests::lazy_index

echo "==> per-access differentials (release mode: recency-key cache vs the"
echo "    valid-bit oracle, one-pass coalesce vs per-access sort + dedup,"
echo "    closed-form bank conflicts vs the sort-based definition)"
cargo test --release -p eta-mem --lib -q -- \
    cache::tests::differential_random_ops_match_fill_oracle \
    cache::tests::flush_edges_match_fill_oracle \
    cache::tests::clock_at_the_key_bound_matches_fill_oracle \
    access::tests::coalesce_matches_per_access_sort_and_dedup
cargo test --release -p eta-sim --lib -q -- \
    warp::tests::bank_conflicts_match_the_sort_based_definition

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> committed artifacts are current (full suite, regenerated and compared"
echo "    byte for byte: the engine, multi-BFS plain/checkpointed/resumed and"
echo "    PageRank loops; the slower artifacts are the pre-merge"
echo "    'report all --check reports/' step of .claude/skills/verify/SKILL.md)"
cargo run --release -p eta-bench --bin report -- \
    profile serve faults chaos extras lint --check reports/

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
grep -q "0 lost" "$PROFILE_OUT/chaos.txt"
mv "$PROFILE_OUT/chaos.json" "$PROFILE_OUT/chaos.first.json"
cargo run --release -p eta-bench --bin report -- chaos --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/chaos.first.json" "$PROFILE_OUT/chaos.json"

echo "==> overload drill gate (quick suite: nonzero exit on any lost or"
echo "    double-counted request, or a saturated cell where qos loses; then"
echo "    the report binary must regenerate the CLI's two files byte for byte"
echo "    — one artifact writer)"
cargo run --release -p eta-cli -- overload --out "$PROFILE_OUT" >/dev/null
grep -q "0 lost" "$PROFILE_OUT/overload.txt"
cargo run --release -p eta-bench --bin report -- overload --quick --check "$PROFILE_OUT"

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
mv "$PROFILE_OUT/transfer.json" "$PROFILE_OUT/transfer.first.json"
cargo run --release -p eta-bench --bin report -- transfer --quick --out "$PROFILE_OUT" >/dev/null
cmp "$PROFILE_OUT/transfer.first.json" "$PROFILE_OUT/transfer.json"

echo "==> host-parallelism byte-identity (same run at 1 and 4 host threads;"
echo "    the web graph is the deep regime: hundreds of one-block launches;"
echo "    the scale-15 graph is the wide one: launches of many waves with a"
echo "    ragged tail, where stages 2 and 4 dispatch once per wave)"
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
            "--transfer prefetch"; do
            # shellcheck disable=SC2086
            cargo run --release -p eta-cli -- run "$PROFILE_OUT/hp.$graph.etag" \
                --alg "$alg" --host-threads 1 $extra --json >"$PROFILE_OUT/hp.1.json"
            # shellcheck disable=SC2086
            cargo run --release -p eta-cli -- run "$PROFILE_OUT/hp.$graph.etag" \
                --alg "$alg" --host-threads 4 $extra --json >"$PROFILE_OUT/hp.4.json"
            cmp "$PROFILE_OUT/hp.1.json" "$PROFILE_OUT/hp.4.json"
        done
    done
done
echo "    host-parallelism loop: $((SECONDS - hp_start)) s"
cargo run --release -p eta-cli -- serve --graph rmat10 --requests 20 \
    --devices 2 --host-threads 1 --json >"$PROFILE_OUT/hp.serve.1.json"
cargo run --release -p eta-cli -- serve --graph rmat10 --requests 20 \
    --devices 2 --host-threads 4 --json >"$PROFILE_OUT/hp.serve.4.json"
cmp "$PROFILE_OUT/hp.serve.1.json" "$PROFILE_OUT/hp.serve.4.json"

echo "==> fault parity (one launch path: a hang plan is a typed error under"
echo "    every --framework, never a run that exits 0)"
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
