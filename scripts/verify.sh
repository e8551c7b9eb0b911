#!/usr/bin/env bash
# Tier-1 verification: the workspace must build, test, and stay
# dependency-free entirely offline. Run from anywhere inside the repo.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel 2>/dev/null || dirname "$0")/"
[ -f Cargo.toml ] || cd "$(dirname "$0")/.."

echo "== dependency freeze check =="
# The workspace is self-contained: every [dependencies]/[dev-dependencies]
# entry must be a path crate of this workspace. Fail if any manifest
# reintroduces an external crate (rand, serde, bytes, parking_lot,
# crossbeam, proptest, criterion, or anything else from crates.io).
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Dependency section bodies, stripped of comments/blank lines.
    deps=$(awk '
        /^\[(workspace\.)?(dev-|build-)?dependencies\]/ { indep = 1; next }
        /^\[/ { indep = 0 }
        indep && NF && $0 !~ /^#/ { print }
    ' "$manifest")
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        # Allowed forms: `name.workspace = true` or `name = { path = ... }`.
        if echo "$line" | grep -qE '^[a-z0-9_-]+\.workspace *= *true'; then
            continue
        fi
        if echo "$line" | grep -qE '^[a-z0-9_-]+ *= *\{[^}]*path *='; then
            continue
        fi
        echo "  FORBIDDEN external dependency in $manifest: $line"
        fail=1
    done <<< "$deps"
done
if [ "$fail" -ne 0 ]; then
    echo "dependency freeze check FAILED: the workspace must stay self-contained"
    exit 1
fi
echo "  ok: all dependencies are in-workspace path crates"

echo "== tier-1: cargo build --release --offline =="
cargo build --release --offline

# CHECK_SEED pins every property-harness test to one case; export it so
# the child `cargo test` invocations below replay it (see scripts/soak.sh).
if [ -n "${CHECK_SEED:-}" ]; then
    export CHECK_SEED
    echo "== replaying single property case CHECK_SEED=$CHECK_SEED =="
fi

echo "== tier-1: cargo test -q --offline =="
if ! cargo test -q --offline; then
    echo "verify.sh: tier-1 tests FAILED" >&2
    echo "  property failures print a case seed above; replay just it with:" >&2
    echo "  CHECK_SEED=<seed> scripts/verify.sh" >&2
    exit 1
fi

echo "== detlint: determinism & protocol-flow static analysis =="
# Two passes in one binary, workspace-wide, fail on any finding:
#  * per-file token rules — no HashMap/HashSet in deterministic crates, no
#    wall-clock or OS entropy outside the allowlist, no unsafe,
#    explicit-reason expect() in protocol hot paths;
#  * cross-file protocol-flow rules — every constructed Net variant has a
#    handler arm, every emitted Obs variant has an oracle, every appended
#    WalRecord has a replay arm, WAL appends precede acks, and the
#    threaded runtime never blocks in a handler or orders locks cyclically.
# Exceptions need `// detlint::allow(rule): reason` — reason mandatory.
if ! cargo run -q --offline --release -p detlint; then
    echo "verify.sh: detlint FAILED; machine-readable findings via:" >&2
    echo "  cargo run -q --offline --release -p detlint -- --format json" >&2
    exit 1
fi

echo "== wire layouts are declared once (wire_struct! / wire_enum!) =="
# A record's layout is one declaration; only the codec's own primitives,
# containers and macros spell out an `impl Wire for`.
if grep -rn "impl.*Wire for" crates --include=*.rs |
    grep -v -e "^crates/bench/e2e/" -e "^crates/southbound/src/codec.rs:"; then
    echo "verify.sh: hand-written Wire impl above; declare it with wire_struct!/wire_enum!" >&2
    exit 1
fi

echo "== one Host in src (simnet::node::Context) =="
# A handler runs against the one effect-collecting Host; an executor builds
# a Context and applies (or drops) its effects, it does not implement the
# trait again. Tests may; crates/bench/e2e is the benchmark's own.
if grep -rnE "^\s*impl(<[^>]*>)? +Host<" crates src examples --include=*.rs |
    grep -v -e "^crates/bench/e2e/" -e "^crates/simnet/src/node.rs:" -e "^crates/[^/]*/tests/"; then
    echo "verify.sh: a second Host impl above; build a simnet::node::Context and read its effects (DESIGN.md §3b)" >&2
    exit 1
fi

echo "== send_delayed stays with the cost model's callers =="
# `extra_delay` is modeled cost: the threaded executor transmits such a send
# at once (DESIGN.md §3b), so a protocol wait must be a timer. Only the
# trait's own file, the controller and switch handlers that price their
# pipeline stages, and tests may call it (five files today); a new crate must
# not quietly grow a wait that cicero-node would skip.
# A column-0 `#[cfg(test)]` opens a file's unit tests, which run to its end.
if find crates src examples -name '*.rs' -not -path 'crates/*/tests/*' -print0 | xargs -0 awk '
        FNR == 1 { tests = 0 }
        $0 == "#[cfg(test)]" { tests = 1 }
        !tests && /send_delayed\(/ { print FILENAME ":" FNR ": " $0 }' |
    grep -v -e "^crates/simnet/src/node.rs:" -e "^crates/cicero-core/src/ctrl/" \
        -e "^crates/cicero-core/src/switch.rs:"; then
    echo "verify.sh: send_delayed outside its five files above; a protocol that must wait sets a timer" >&2
    exit 1
fi

echo "== the signed receipts, signed events, acks, reports and readies, identity-key signing, dealt pair keys, a second cross-domain recovery path, hand-written kept archives and a second phase-notice collector stay deleted =="
if grep -rn "BoundaryRelease\b\|ReleaseBody\|SegwayReadyAck\|READY_RECEIPT\|ReadyReceipted\|ready_out\|Signed<AckBody>\|Signed<NackBody>\|SegmentQuery\b\|SegmentQueried\|reforward_segway\|segway_events\|PairKeys\|pair_keys\|seg_shares\|ShareSigned<SegmentBody>\|Signed<ReadyBody>\|KeptReady\|KeptReport\|kept_updates\|struct Relayed\|phase_partials\|fn real_crypto\|QuorumSigned::aggregate\|Signed<Event>\|fn verify_latency\|event_sign\|auth\.sign(" \
    crates src tests examples --include=*.rs; then
    echo "verify.sh: the handshake and the Segway readies are receiver-driven; acks, NACKs, segment reports and Segway readies are Tagged<_> under a pair key each end derives from the identity keys (auth::pair_key), never dealt; and a cross-domain event has one recovery loop — the re-forward of whoever still waits, which is also the query (DESIGN.md §3); no receipt type, no signed twin, no key ceremony for pairs and no second path comes back" >&2
    echo "verify.sh: a message sent once and re-sent as-is on request lives in controller::pending::Kept, not in an archive of its own" >&2
    echo "verify.sh: only the authentication seam asks whether crypto is real, and the phase notice is collected by Authenticator::collect like every other quorum (DESIGN.md §3)" >&2
    echo "verify.sh: switch events and controller forwards are Tagged<Event> too; an identity key derives pair keys and signs nothing, so the seam has no sign/verify/verify_latency and the cost model no event_sign (DESIGN.md §3)" >&2
    exit 1
fi

echo "== perf regression gate (benchkit compare vs BENCH_protocol.json) =="
# Re-measure the crypto, protocol and consensus suites and diff the medians
# against the recorded baseline: fail on any entry regressing past the
# tolerance band, on a renamed/vanished entry, or on the absolute caps.
# The caps sit at about twice the recorded medians (refresh them with the
# baseline): bls_verify ≤ 3.1 ms and, under a key whose line table is kept,
# bls_verify_prepared ≤ 2.8 ms; a four-signer same-message batch
# (batch_verify_4_same_msg) ≤ 4.3 ms; one ack's tag plus its check
# (hmac_tag_ack) ≤ 7.7 µs; deriving one pair key (pair_key_derive: a G2
# scalar multiplication and the HKDF) ≤ 800 µs; batch_verify_64 amortized
# ≤ 2 ms per update (the paper-level target); and one cross-domain
# boundary's whole handshake (handshake_boundary_n4: 16 report tags, 8 tag
# checks, nothing else) ≤ 92 µs. The last one is what keeps the handshake
# tagged and receipt-free: the threshold-signed certificates PR 26 replaced
# cost about 7.7 ms on the baseline host, verifying every report singly
# about 22, and the signed receipts PR 20 deleted another 10, so a change
# that quietly puts any of them back fails here in seconds.
# The band is wide (3x) because this runs on shared/variable hardware; the
# caps are what the acceptance criteria actually pin. Skip with
# SKIP_BENCH_GATE=1 (e.g. on heavily loaded CI workers), refresh the
# baseline with BENCHKIT_OUT=$PWD/BENCH_protocol.json cargo bench -p bench --bench <suite>.
if [ -z "${SKIP_BENCH_GATE:-}" ]; then
    fresh_bench=$(mktemp /tmp/benchkit-fresh.XXXXXX.json)
    BENCHKIT_OUT="$fresh_bench" cargo bench -q --offline -p bench --bench crypto >/dev/null
    BENCHKIT_OUT="$fresh_bench" cargo bench -q --offline -p bench --bench protocol >/dev/null
    BENCHKIT_OUT="$fresh_bench" cargo bench -q --offline -p bench --bench consensus >/dev/null
    cargo run -q --offline --release -p bench --bin benchgate -- \
        BENCH_protocol.json "$fresh_bench" crypto \
        --tolerance 2.0 \
        --cap bls_verify=3100000 \
        --cap bls_verify_prepared=2800000 \
        --cap batch_verify_4_same_msg=4300000 \
        --cap hmac_tag_ack=7700 \
        --cap pair_key_derive=800000 \
        --cap batch_verify_64/64=2000000
    cargo run -q --offline --release -p bench --bin benchgate -- \
        BENCH_protocol.json "$fresh_bench" protocol \
        --tolerance 2.0 \
        --cap handshake_boundary_n4=92000
    cargo run -q --offline --release -p bench --bin benchgate -- \
        BENCH_protocol.json "$fresh_bench" consensus \
        --tolerance 2.0
    rm -f "$fresh_bench"
else
    echo "  skipped (SKIP_BENCH_GATE set)"
fi

echo "== secure-mode fuzzer sweep (256 seeds, threshold-signed modes) =="
# All 256 seeds forced into the Cicero-family modes so every scenario
# exercises threshold signing, quorum checks, and the aggregator's batched
# verification — the paths the crypto fast path rewired.
cargo run -q --offline --release -p bench --bin simcheck -- secure 256

echo "== secure-mode crash-recovery sweep (256 seeds) =="
# generate_recovery already forces Cicero-family modes; 256 seeds of
# crash-and-restart on top of the secure update path: every scenario
# carries exactly one crash-recover fault (a controller killed mid-update
# and restarted, half the seeds with its disk wiped), and the recovery
# oracle demands exactly-once update application and a completed state
# sync per restart on top of the standard invariants.
cargo run -q --offline --release -p bench --bin simcheck -- recover 256

echo "== segway-mode fuzzer sweep (256 seeds, decentralized execution) =="
# All 256 seeds forced into Mode::Segway so every scenario exercises the
# switch-to-switch release path: threshold-signed gate/notify metadata,
# tagged readies sent once and kept, the parked switch's queries for the
# ones it misses, ready loss/duplication, rogue and replayed readies, and
# (every fourth seed) a switch crashed and restarted from its WAL
# mid-release.
cargo run -q --offline --release -p bench --bin simcheck -- segway 256

echo "== simulation fuzzer smoke (bounded seed sweep) =="
# A bounded exploration of fresh seeds beyond the fixed forall! sweep the
# test suite already ran; failures are shrunk and written as replayable
# artifacts, and the run prints the exact replay command. The generator
# biases every fourth seed (seed % 4 == 3, i.e. a quarter of this sweep)
# toward multi-domain scenarios with a boundary-crossing flow, so the
# cross-domain ordering handshake is exercised on every invocation.
cargo run -q --offline --release -p bench --bin simcheck -- run 64

echo "== reliability smoke (scripts/soak.sh quick) =="
SOAK_QUICK=1 "$(dirname "$0")/soak.sh"

echo "== threaded runtime smoke (cicero-node, real threads) =="
# The same protocol actors on OS threads: a 2-domain deployment from the
# example config must converge with a clean consistency audit inside a few
# seconds of wall clock (the config's budget_ms bounds the run).
cargo build -q --release --offline -p cicero-node
cargo run -q --release --offline -p cicero-node -- examples/node_two_domains.json
# Both executors on the same scenarios. Its loss-free cases demand that not
# one retransmission happened, which is what catches an ack racing its own
# update on real threads — and a race shows in some runs only: ten of them.
for _ in 1 2 3 4 5 6 7 8 9 10; do
    cargo test -q --offline --release -p cicero-node --test equivalence
done

echo "== crash-recovery smoke (cicero-node, WAL on real files) =="
# Same runtime with a mid-run controller crash: the WAL and snapshots live
# in a scratch directory, the victim restarts from its fsync'd log, state-
# syncs the gap from a peer, and the run must still converge and audit
# clean.
cargo run -q --release --offline -p cicero-node -- examples/node_recovery.json

echo "== lines of code (scripts/loc.sh; sizes printed, staleness gated) =="
# src vs. test lines per crate, each src count with its delta against the
# committed LOC.md, so a PR's effect and the trend are visible in review.
# The sizes are not a gate; a committed LOC.md that differs from a fresh
# table is (refresh it with --write).
"$(dirname "$0")/loc.sh" | sed -n '/^| crate/,/^| \*\*total/p' | awk -F'|' '
    function cell(s) { gsub(/[ *]/, "", s); return s }
    NR == FNR { if (NF == 6) old[cell($2)] = cell($3); next }
    {
        k = cell($2); v = cell($3)
        print $0 ((v ~ /^[0-9]+$/ && k in old) ? sprintf("  (src %+d vs LOC.md)", v - old[k]) : "")
    }
' LOC.md -
"$(dirname "$0")/loc.sh" --check

echo "verify.sh: all checks passed"
