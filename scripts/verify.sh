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

echo "== the crates' own tests: cargo test -q --offline --release --workspace --exclude cicero =="
# The step above runs only the facade package's test targets, so this one
# leaves them out. The golden trace hashes (simcheck/tests/determinism.rs),
# cicero-core's e2e, recovery and reliability suites, and the bft,
# controller, blscrypto and cicero-node tests live in the member crates (a
# few minutes on two cores).
if ! cargo test -q --offline --release --workspace --exclude cicero; then
    echo "verify.sh: a member crate's tests FAILED" >&2
    exit 1
fi

echo "== clippy: determinism, durable I/O, panic policy and lint hygiene =="
# The workspace denies clippy.toml's disallowed types and methods (hash
# collections, OS entropy, wall clocks and OS threads, file opening and
# fsync: DESIGN.md §5), reason-less `#[allow]`s and stale `#[expect]`s; the
# protocol hot-path roots deny unwrap/todo!/unimplemented!. Clippy's other
# warnings are printed, not gated.
cargo clippy -q --offline --workspace --all-targets
# rustfmt holds the crates that are clean under it; a crate joins the list
# once `cargo fmt -p <crate>` has been run on it.
cargo fmt --check -p bft
# The benchmark package is outside the workspace and sets no lints: hold it
# to the ban list it finds by clippy's upward search, crates/bench/clippy.toml
# (the root list without the wall-clock entries).
cargo clippy -q --offline --manifest-path crates/bench/e2e/Cargo.toml --all-targets \
    --target-dir target/bench-e2e -- \
    -A clippy::all -D clippy::disallowed_types -D clippy::disallowed_methods

# Prints file:line for each `.expect(` outside unit tests (a column-0
# `#[cfg(test)]` opens them, to the file's end) whose argument is not a
# non-empty string literal, even when the call spans lines. Clippy has no
# lint for a reason-less expect.
bare_expects() {
    perl -0777 -ne '
        s/^#\[cfg\(test\)\]\n.*//ms;
        while (/\.expect\(\s*("(?:[^"\\]|\\.)*")?/g) {
            next if defined $1 && substr($1, 1, -1) =~ /\S/;
            print "$ARGV:", 1 + (substr($_, 0, $-[0]) =~ tr/\n//), "\n";
        }' "$@"
}

echo "== clippy refuses every planted violation (scripts/lint-fixture) =="
# One violation per banned type and method, an unwrap, a todo! and an
# unimplemented! under the hot-path deny, a reason-less allow and a stale
# expect: a configuration that went vacuous fails here.
fixture=$(cargo clippy --offline --manifest-path scripts/lint-fixture/Cargo.toml \
    --target-dir target/lint-fixture --message-format=short 2>&1 || true)
missing=0
while IFS= read -r want; do
    if ! grep -qF -- "$want" <<< "$fixture"; then
        echo "  not refused: $want" >&2
        missing=1
    fi
done <<'EXPECTED'
disallowed type `std::collections::HashMap`
disallowed type `std::collections::HashSet`
disallowed type `std::hash::RandomState`
disallowed type `std::time::Instant`
disallowed type `std::time::SystemTime`
disallowed type `std::fs::OpenOptions`
disallowed method `std::thread::spawn`
disallowed method `std::thread::Builder::spawn`
disallowed method `std::fs::File::sync_all`
disallowed method `std::fs::File::sync_data`
used `unwrap()` on an `Option` value
`todo` should not be present in production code
`unimplemented` should not be present in production code
`allow` attribute without specifying a reason
this lint expectation is unfulfilled
EXPECTED
if [ "$missing" -ne 0 ] || [ -z "$(bare_expects scripts/lint-fixture/src/lib.rs)" ]; then
    printf '%s\n' "$fixture" >&2
    echo "verify.sh: a planted violation above went unrefused; the lint configuration no longer checks it" >&2
    exit 1
fi

echo "== every expect() on a protocol hot path states its invariant =="
# The files under the five roots that deny clippy::unwrap_used.
if bare_expects crates/bft/src/replica.rs crates/cicero-core/src/switch.rs \
    crates/cicero-core/src/engine.rs $(find crates/cicero-core/src/ctrl crates/controller/src -name '*.rs' | sort) |
    grep .; then
    echo "verify.sh: expect(\"why this cannot fail\") above, with a non-empty literal reason" >&2
    exit 1
fi

echo "== a node blocks only between handlers, and the log is its one shared lock =="
# Actor safety of the threaded executor (DESIGN.md §5): a handler that blocks
# on a channel can deadlock its node, and a second shared lock would need an
# order. So a blocking recv/recv_timeout/send is called only in the node loop
# (NodeRunner::run) and the driver-side ThreadedDeployment methods, and
# .lock() only where the observation log is appended or read. Unit tests
# (from a column-0 `#[cfg(test)]`) are exempt.
actor_sites=$(find crates/cicero-node/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { tests = 0 }
        $0 == "#[cfg(test)]" { tests = 1 }
        /^impl/ { t = $0; sub(/^impl(<[^>]*>)? /, "", t); sub(/.* for /, "", t); sub(/[^A-Za-z0-9_].*/, "", t) }
        /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ { f = $0; sub(/^[^f]*fn /, "", f); sub(/[^a-z_0-9].*/, "", f) }
        !tests && /\.(recv|recv_timeout|send)\(/ { print FILENAME ": blocks in " t "::" f }
        !tests && /\.lock\(\)/ { print FILENAME ": locks in " t "::" f }' | sort -u)
expected_actor_sites="crates/cicero-node/src/exec.rs: blocks in NodeRunner::run
crates/cicero-node/src/exec.rs: blocks in ThreadedDeployment::inject_flows
crates/cicero-node/src/exec.rs: blocks in ThreadedDeployment::kill
crates/cicero-node/src/exec.rs: blocks in ThreadedDeployment::probe_outstanding
crates/cicero-node/src/exec.rs: blocks in ThreadedDeployment::restart
crates/cicero-node/src/exec.rs: blocks in ThreadedDeployment::shutdown
crates/cicero-node/src/exec.rs: locks in NodeRunner::handle
crates/cicero-node/src/exec.rs: locks in ThreadedDeployment::poll_resolved
crates/cicero-node/src/exec.rs: locks in ThreadedDeployment::run_to_convergence
crates/cicero-node/src/exec.rs: locks in ThreadedDeployment::shutdown"
if [ "$actor_sites" != "$expected_actor_sites" ]; then
    diff <(printf '%s\n' "$expected_actor_sites") <(printf '%s\n' "$actor_sites") >&2 || true
    echo "verify.sh: a blocking channel call or a lock outside the sites listed here (> is new); a handler must not block, and the observation log is the executor's one shared lock" >&2
    exit 1
fi

echo "== rustdoc: every doc link resolves =="
# Warnings are errors, so renaming an item cannot leave a dead or redundant
# intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace --lib

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

echo "== the consensus tick is armed in one place (ControllerActor::arm_tick) =="
# A controller's TICK runs only while it has work (DESIGN.md §Reliable
# delivery): arm_tick sets it, once per chain. A second set_timer(.., TICK)
# in a handler would restart a free-running chain beside it.
tick_sites=$(find crates/cicero-core/src -name '*.rs' -print0 | xargs -0 awk '
        match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
        /set_timer\([^)]*, TICK\)/ { print FILENAME ":" FNR ": in fn " f }')
if [ "$(printf '%s\n' "$tick_sites" | grep -c .)" -ne 1 ] || ! printf '%s\n' "$tick_sites" | grep -q ": in fn arm_tick$"; then
    printf '%s\n' "$tick_sites" >&2
    echo "verify.sh: set_timer(TICK_PERIOD, TICK) must occur exactly once under crates/cicero-core/src, in ControllerActor::arm_tick" >&2
    exit 1
fi

echo "== GLV multiplies only points made in G1 (SecretKey::sign) =="
# G1Projective::mul_glv is [k]P only on the r-torsion (DESIGN.md §3d): its
# callers outside tests are SecretKey::sign, on hash_to_g1's output, and
# the benchmark lever, on the generator. A point received off the wire must
# never reach it, so any other call fails here.
glv_sites=$(find crates src -name '*.rs' -not -path 'crates/*/tests/*' \
        -not -name differential.rs -not -name reference.rs -print0 | xargs -0 awk '
        FNR == 1 { tests = 0 }
        $0 == "#[cfg(test)]" { tests = 1 }
        match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
        !tests && /mul_glv\(/ && !/fn mul_glv\(/ { print FILENAME ": in fn " f ": " $0 }' |
    sed 's/  */ /g')
expected_glv_sites="crates/blscrypto/src/bls.rs: in fn sign: Signature(hash_to_g1(msg, SIGNATURE_DOMAIN).mul_glv(self.0).to_affine())
crates/blscrypto/src/curves.rs: in fn g1_mul_glv_lever: g1_generator().mul_glv(k)"
if [ "$(printf '%s\n' "$glv_sites" | sort)" != "$expected_glv_sites" ]; then
    printf '%s\n' "$glv_sites" >&2
    echo "verify.sh: mul_glv is called on hash_to_g1's output in SecretKey::sign and on the generator in g1_mul_glv_lever, nowhere else" >&2
    exit 1
fi

echo "== Feldman multiplies the generator on its table, and reshares sum in one chain =="
# The public G2 generator is a fixed base (DESIGN.md §3d): a commitment
# point and the left side of every share check are g2_mul_generator. No
# mul_fr is left in these three files: a polynomial in the exponent is
# Horner over mul_small, and a reshared coefficient weighs its dealings in
# one sum_of_products, so Commitment::scale stays deleted. Test modules
# (after their #[cfg(test)]) may keep the slow formulas as oracles.
feldman_sites=$(awk '
        FNR == 1 { tests = 0 }
        $0 == "#[cfg(test)]" { tests = 1 }
        !tests && (/\.mul_fr\(/ || /fn scale\(/) { print FILENAME ":" FNR ": " $0 }' \
    crates/blscrypto/src/feldman.rs crates/blscrypto/src/dkg.rs crates/blscrypto/src/reshare.rs)
if [ -n "$feldman_sites" ]; then
    printf '%s\n' "$feldman_sites" >&2
    echo "verify.sh: Feldman commitments and share checks multiply the generator through g2_mul_generator, and finalize_reshare weighs dealings with one sum_of_products per coefficient (no Commitment::scale)" >&2
    exit 1
fi

echo "== a dealing is checked as a whole; one share at a time only on the blame path and a member's own reshare check =="
# A DKG or reshare dealing is checked once, for every recipient at once
# (Commitment::verify_shares: interpolate the shares in Fr, then t + 1
# fixed-base products; DESIGN.md §3d). One share at a time is checked only
# where that is the question: dkg::verify_dealing names the complainers of
# a dealing that failed the whole check, and a re-keying controller checks
# its own sub-share of each designated dealing once
# (reshare::verify_reshare_dealing). Any other caller of verify_share(
# outside test modules fails here: a second pass over shares that a
# dealing check already covered doubles a key ceremony's cost.
share_sites=$(find crates src -name '*.rs' -not -path 'crates/*/tests/*' \
        -not -name differential.rs -not -name reference.rs -print0 | xargs -0 awk '
        FNR == 1 { tests = 0 }
        $0 == "#[cfg(test)]" { tests = 1 }
        match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
        !tests && /verify_share\(/ && !/fn verify_share\(/ { print FILENAME ": in fn " f }')
expected_share_sites="crates/blscrypto/src/dkg.rs: in fn verify_dealing
crates/blscrypto/src/reshare.rs: in fn verify_reshare_dealing"
if [ "$(printf '%s\n' "$share_sites" | sort)" != "$expected_share_sites" ]; then
    printf '%s\n' "$share_sites" >&2
    echo "verify.sh: verify_share( is called by dkg::verify_dealing (the blame path) and reshare::verify_reshare_dealing, nowhere else outside tests; check a dealing as a whole with Commitment::verify_shares" >&2
    exit 1
fi

echo "== the signed receipts, signed events, acks, reports and readies, identity-key signing, dealt pair keys, a second cross-domain recovery path, hand-written kept archives, a second phase-notice collector, lint rules the compiler proves, reliability and delivery-trace settings, a second event message, hand-kept early-word ledgers and per-update signatures stay deleted =="
if grep -rn "BoundaryRelease\b\|ReleaseBody\|SegwayReadyAck\|READY_RECEIPT\|ReadyReceipted\|ready_out\|Signed<AckBody>\|Signed<NackBody>\|SegmentQuery\b\|SegmentQueried\|reforward_segway\|segway_events\|PairKeys\|pair_keys\|seg_shares\|ShareSigned<SegmentBody>\|Signed<ReadyBody>\|KeptReady\|KeptReport\|kept_updates\|struct Relayed\|phase_partials\|fn real_crypto\|QuorumSigned::aggregate\|Signed<Event>\|fn verify_latency\|event_sign\|auth\.sign(\|TRACKED_ENUMS\|fn parse_enums\|fn variant_uses\|fn write_ahead\|CRYPTO_MODE_ALLOWED\|keys\.dummy\|ReliabilityConfig\|trace_deliveries\|ForwardedEvent\|with_policy\|early_releases\|early_readies\|early_reports\|MAX_EARLY_RELEASES\|MAX_EARLY_REPORTS\|BarrierState\|BarrierExpect\|record_barrier_signer\|ShareSigned<UpdateBody>\|QuorumSigned<UpdateBody>\|struct Leaf\|trait Signable\|fn certify_with\|agg_sets\|fn unhashed" \
    crates src tests examples --include=*.rs; then
    echo "verify.sh: the handshake and the Segway readies are receiver-driven; acks, NACKs, segment reports and Segway readies are Tagged<_> under a pair key each end derives from the identity keys (auth::pair_key), never dealt; and a cross-domain event has one recovery loop — the re-forward of whoever still waits, which is also the query (DESIGN.md §3); no receipt type, no signed twin, no key ceremony for pairs and no second path comes back" >&2
    echo "verify.sh: a message sent once and re-sent as-is on request lives in controller::pending::Kept, not in an archive of its own" >&2
    echo "verify.sh: only the authentication seam asks whether crypto is real, and the phase notice is collected by Authenticator::collect like every other quorum (DESIGN.md §3)" >&2
    echo "verify.sh: switch events and controller forwards are Tagged<Event> too; an identity key derives pair keys and signs nothing, so the seam has no sign/verify/verify_latency and the cost model no event_sign (DESIGN.md §3)" >&2
    echo "verify.sh: no lint restates what the compiler proves — exhaustive Net/Obs/WalRecord matches, forbid(unsafe_code), and sends that leave after their handler's WAL appends (DESIGN.md §5); a placeholder signature is KeyMaterial::dummy_signature()" >&2
    echo "verify.sh: retransmission bases and budgets are protocol constants (config.rs, controller::pending::MAX_BACKOFF), every controller always logs its deliveries, a retry policy is passed to its table's constructor, and a forward is a Net::EventMsg marked forwarded (DESIGN.md §3)" >&2
    echo "verify.sh: a word that may overtake its subject (release, Segway ready, segment report, early ack) is kept in controller::pending::Tally under its one MAX_EARLY allowance, not in a ledger of its own (DESIGN.md §3)" >&2
    echo "verify.sh: an update is certified through its domain-event's UpdateSet — one share per controller per set, a member with its audit path — never by a signature over the body alone (DESIGN.md §3, \"One share per domain-event\")" >&2
    echo "verify.sh: a set's tree hash follows the crypto level (Authenticator::tree_hash), so its root binds every member at every level and an UpdateSet is collected as it is: no leaf wrapper, no second signable digest, no certification by another bucket's signature, no unhashed placeholder root" >&2
    exit 1
fi

echo "== the bootstrap membership is read only at set-up =="
# A domain's initial_members are a set-up fact: the key ceremony
# (runtime.rs), the deployment plan (deploy.rs), a controller's first view
# of the other domains (ctrl/mod.rs) and the node binary's example config
# (cicero-node/src/main.rs). Everything after set-up follows the current
# membership — a switch its group-signed PhaseInfo — so a joiner gets every
# ack, NACK and event, and a removed member none.
initial_sites=$(grep -rl "initial_members" crates src --include=*.rs | grep -v -e "^crates/bench/e2e/" -e "^crates/[^/]*/tests/" | sort)
expected_initial_sites="crates/cicero-core/src/ctrl/mod.rs
crates/cicero-core/src/deploy.rs
crates/cicero-core/src/runtime.rs
crates/cicero-node/src/main.rs"
if [ "$initial_sites" != "$expected_initial_sites" ]; then
    diff <(printf '%s\n' "$expected_initial_sites") <(printf '%s\n' "$initial_sites") >&2 || true
    echo "verify.sh: initial_members read outside set-up (> is new); after set-up a node follows the current members (a switch: PhaseInfo::members)" >&2
    exit 1
fi

echo "== a flow enters a run one way =="
# Shared::flow_arrival (runtime.rs) builds every flow's arrival: its route,
# its ingress switch's node and its transit time. msg.rs declares the
# variant and switch.rs and ctrl/mod.rs match on it. Everyone else — the
# experiment drivers, tests and examples included — injects a flow through
# Engine::inject_flow(s) or ThreadedDeployment::inject_flows, never by hand.
arrival_sites=$(grep -rlw "FlowArrival" crates src tests examples --include=*.rs | grep -v "^crates/bench/e2e/" | sort)
expected_arrival_sites="crates/cicero-core/src/ctrl/mod.rs
crates/cicero-core/src/msg.rs
crates/cicero-core/src/runtime.rs
crates/cicero-core/src/switch.rs"
if [ "$arrival_sites" != "$expected_arrival_sites" ]; then
    diff <(printf '%s\n' "$expected_arrival_sites") <(printf '%s\n' "$arrival_sites") >&2 || true
    echo "verify.sh: FlowArrival named outside its constructor and handlers (> is new); inject a flow with Engine::inject_flow, which goes through Shared::flow_arrival" >&2
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
# scalar multiplication and the HKDF) ≤ 800 µs; one share-sign
# (threshold_sign_share: a hash and a GLV multiply) ≤ 310 µs and one hash
# (hash_to_g1, cleared by h_eff) ≤ 142 µs; a DKG of four
# (ceremonies/dkg_n4_t1) ≤ 2.7 ms and a reshare 4 → 5
# (ceremonies/reshare_4_to_5) ≤ 2.2 ms, the key ceremony on the
# generator's fixed-base table with each dealing checked once, as a whole
# (with every share checked a second time, as the DKG once did, it read
# 3.1 ms; with the share check on a variable-base product, 11.7 ms);
# batch_verify_64 amortized
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
    # The crypto suite is judged at reference speed: benchgate times its
    # host probe before the suite and again after it, and takes the faster.
    probe_before=$(cargo run -q --offline --release -p bench --bin benchgate -- --probe)
    BENCHKIT_OUT="$fresh_bench" cargo bench -q --offline -p bench --bench crypto >/dev/null
    cargo run -q --offline --release -p bench --bin benchgate -- \
        BENCH_protocol.json "$fresh_bench" crypto \
        --probe-before "$probe_before" \
        --tolerance 2.0 \
        --cap bls_verify=3100000 \
        --cap bls_verify_prepared=2800000 \
        --cap batch_verify_4_same_msg=4300000 \
        --cap hmac_tag_ack=7700 \
        --cap pair_key_derive=800000 \
        --cap threshold_sign_share=310000 \
        --cap hash_to_g1=142000 \
        --cap ceremonies/dkg_n4_t1=2700000 \
        --cap ceremonies/reshare_4_to_5=2200000 \
        --cap batch_verify_64/64=2000000
    BENCHKIT_OUT="$fresh_bench" cargo bench -q --offline -p bench --bench protocol >/dev/null
    cargo run -q --offline --release -p bench --bin benchgate -- \
        BENCH_protocol.json "$fresh_bench" protocol \
        --tolerance 2.0 \
        --cap handshake_boundary_n4=92000
    BENCHKIT_OUT="$fresh_bench" cargo bench -q --offline -p bench --bench consensus >/dev/null
    cargo run -q --offline --release -p bench --bin benchgate -- \
        BENCH_protocol.json "$fresh_bench" consensus \
        --tolerance 2.0
    rm -f "$fresh_bench"
else
    echo "  skipped (SKIP_BENCH_GATE set)"
fi

echo "== secure-mode fuzzer sweep (2048 seeds, threshold-signed modes) =="
# All 2,048 seeds forced into the Cicero-family modes so every scenario
# exercises threshold signing, quorum checks, and the aggregator's batched
# verification — the paths the crypto fast path rewired.
cargo run -q --offline --release -p bench --bin simcheck -- secure 2048

echo "== secure-mode crash-recovery sweep (2048 seeds) =="
# generate_recovery already forces Cicero-family modes; 2,048 seeds of
# crash-and-restart on top of the secure update path: every scenario
# carries exactly one crash-recover fault (a controller killed mid-update
# and restarted, half the seeds with its disk wiped), and the recovery
# oracle demands exactly-once update application and a completed state
# sync per restart on top of the standard invariants.
cargo run -q --offline --release -p bench --bin simcheck -- recover 2048

echo "== segway-mode fuzzer sweep (2048 seeds, decentralized execution) =="
# All 2,048 seeds forced into Mode::Segway so every scenario exercises the
# switch-to-switch release path: threshold-signed gate/notify metadata,
# tagged readies sent once and kept, the parked switch's queries for the
# ones it misses, ready loss/duplication, rogue and replayed readies, and
# (every fourth seed) a switch crashed and restarted from its WAL
# mid-release.
cargo run -q --offline --release -p bench --bin simcheck -- segway 2048

echo "== simulation fuzzer sweep (2048 seeds) =="
# A bounded exploration of fresh seeds beyond the fixed forall! sweep the
# test suite already ran; failures are shrunk and written as replayable
# artifacts, and the run prints the exact replay command. The generator
# biases every fourth seed (seed % 4 == 3, i.e. 512 of these 2,048)
# toward multi-domain scenarios with a boundary-crossing flow, so the
# cross-domain ordering handshake is exercised on every invocation.
cargo run -q --offline --release -p bench --bin simcheck -- run 2048

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
# update on real threads — and a race shows in some runs only: ten of them,
# the member-crate step above being the first.
for _ in 1 2 3 4 5 6 7 8 9; do
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
