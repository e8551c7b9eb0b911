//! Engine configuration: protocol modes, crypto execution modes, the
//! calibrated cost model, and the reliable-delivery constants.

use simnet::time::SimDuration;

/// Which update protocol runs on the control plane — the four systems the
/// paper's evaluation compares (§6.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// One controller, no replication, no authentication (baseline 1).
    Centralized,
    /// Replicated control plane ordering events through atomic broadcast,
    /// but switches apply the first update received with **no quorum
    /// authentication** (baseline 2).
    CrashTolerant,
    /// The full Cicero protocol with threshold-signed updates.
    Cicero {
        /// Who collects and aggregates signature shares.
        aggregation: Aggregation,
    },
    /// Decentralized execution after one controller round (ez-Segway,
    /// Nguyen et al.): controllers threshold-sign each update *together
    /// with* its dependency metadata — one share per domain-event over the
    /// set of such bodies — and push everything at once; switches
    /// then release their neighbors' next segment directly with tagged
    /// switch-to-switch ready messages. Lower latency than `Cicero`
    /// (no controller round-trip per dependency edge) at the price of more
    /// data-plane messages and a wider trust surface: a switch can now
    /// stall a schedule by withholding a ready, though it still cannot
    /// forge one (readies are tagged under the releaser→released pair key
    /// and target-bound) or alter the threshold-signed order.
    Segway,
}

impl Mode {
    /// Cicero with switch-side share aggregation.
    pub const CICERO: Mode = Mode::Cicero {
        aggregation: Aggregation::Switch,
    };
    /// Cicero with the aggregator controller combining shares.
    pub const CICERO_AGG: Mode = Mode::Cicero {
        aggregation: Aggregation::Controller,
    };
    /// Every mode: the paper's four in the order of its legends, then Segway.
    pub const ALL: [Mode; 5] = [
        Mode::Centralized,
        Mode::CrashTolerant,
        Mode::CICERO,
        Mode::CICERO_AGG,
        Mode::Segway,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Centralized => "Centralized",
            Mode::CrashTolerant => "Crash Tolerant",
            Mode::Cicero {
                aggregation: Aggregation::Switch,
            } => "Cicero",
            Mode::Cicero {
                aggregation: Aggregation::Controller,
            } => "Cicero Agg",
            Mode::Segway => "Segway",
        }
    }

    /// The mode's spelling in replay artifacts and config files.
    pub fn key(&self) -> &'static str {
        match self {
            Mode::Centralized => "centralized",
            Mode::CrashTolerant => "crash_tolerant",
            Mode::Cicero {
                aggregation: Aggregation::Switch,
            } => "cicero",
            Mode::Cicero {
                aggregation: Aggregation::Controller,
            } => "cicero_agg",
            Mode::Segway => "segway",
        }
    }

    /// The mode [`Mode::key`] spells `s`.
    pub fn parse(s: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.key() == s)
    }

    /// `true` for the modes whose updates are threshold-signed and whose
    /// switch traffic is authenticated (events, acks and NACKs tagged):
    /// Cicero and Segway. The unauthenticated baselines return `false`.
    pub fn is_signed(&self) -> bool {
        self.aggregation().is_some()
    }

    /// Who turns a signed mode's update shares into one group-key check —
    /// and with that the one form in which an update reaches a switch:
    /// unauthenticated (`None`), as shares the switch aggregates itself, or
    /// as the aggregator's quorum signature.
    pub fn aggregation(&self) -> Option<Aggregation> {
        match *self {
            Mode::Centralized | Mode::CrashTolerant => None,
            Mode::Cicero { aggregation } => Some(aggregation),
            Mode::Segway => Some(Aggregation::Switch),
        }
    }
}

/// Signature-share aggregation placement (paper §3.3 / §4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Aggregation {
    /// Each switch collects shares and aggregates (more switch CPU).
    Switch,
    /// The aggregator controller collects, aggregates and relays (less
    /// switch CPU, more latency).
    Controller,
}

/// Whether cryptographic operations actually execute.
///
/// *Simulated time is charged identically in both modes* (from
/// [`CostModel`]); `Real` additionally runs the BLS math so tests exercise
/// genuine signatures end-to-end, while `Modeled` keeps large benchmark runs
/// fast. The protocol logic (quorum counting, identical-update matching,
/// dedup, acks) is the same code path in both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CryptoMode {
    /// Execute real BLS threshold signatures.
    Real,
    /// Skip the curve math, charge the modeled time.
    Modeled,
}

/// The calibrated per-operation cost model (simulated CPU time).
///
/// Defaults are chosen so the four modes land near the paper's measured
/// anchors on its 2.2 GHz Xeon testbed (flow setup ≈ 2.9 / 4.3 / 8.3 /
/// 11.6 ms; see DESIGN.md "timing calibration" and EXPERIMENTS.md for the
/// comparison against this crate's own `substrate::benchkit` measurements).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Switch: handling any control-plane message (parse, table access).
    pub switch_msg: SimDuration,
    /// Switch/controller: verifying a plain BLS signature (2 pairings).
    pub bls_verify: SimDuration,
    /// Switch/controller: one HMAC-SHA256 tag made or checked over an event,
    /// a forward, an ack, a NACK, a segment report or a Segway ready. The
    /// paper signs its events and acks and has no counterpart: everywhere
    /// this is this code's measured cost, half the `hmac_tag_ack` bench
    /// median.
    pub mac: SimDuration,
    /// Aggregating one signature share (Lagrange-weighted G1 mul).
    pub aggregate_per_share: SimDuration,
    /// Amortized per-item cost of *batched* signature verification: one
    /// randomized pairing-product check covers a whole batch
    /// ([`blscrypto::batch`]), so the per-item share is far below
    /// [`CostModel::bls_verify`]. Charged per share by the aggregator for
    /// validating a quorum before relaying it (the rate its Cicero-Agg
    /// anchor was calibrated with).
    pub batch_verify_per_item: SimDuration,
    /// Controller: signing an update with a key share.
    pub update_sign: SimDuration,
    /// Controller: application + scheduler work per event — the *serialized*
    /// share only. The paper's controllers are 12-core machines while a
    /// simulated node is single-core, so per-event latency is split between
    /// this CPU charge and the latency-only [`CostModel::event_pipeline`].
    pub event_process: SimDuration,
    /// Controller: latency-only event pipeline (parallelizable route
    /// computation + southbound serialization; adds delay, not CPU).
    pub event_pipeline: SimDuration,
    /// Controller: handling one consensus message (CPU).
    pub consensus_msg: SimDuration,
    /// Consensus transport overhead per message (batching/serialization —
    /// latency-only; BFT-SMaRt's per-round cost beyond raw link latency).
    pub consensus_wire: SimDuration,
    /// Controller: handling an ack / bookkeeping message.
    pub ctrl_msg: SimDuration,
    /// Aggregator: receiving and bookkeeping one signature share (CPU).
    pub aggregator_msg: SimDuration,
    /// Aggregator: latency-only collection delay per aggregated update —
    /// "switches must wait for the aggregator to collect and aggregate
    /// responses" (paper §3.3).
    pub aggregator_delay: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            switch_msg: SimDuration::from_micros(250),
            bls_verify: SimDuration::from_micros(450),
            mac: SimDuration::from_nanos(1_925),
            aggregate_per_share: SimDuration::from_micros(150),
            batch_verify_per_item: SimDuration::from_micros(150),
            update_sign: SimDuration::from_micros(250),
            event_process: SimDuration::from_micros(700),
            event_pipeline: SimDuration::from_micros(1200),
            consensus_msg: SimDuration::from_micros(50),
            consensus_wire: SimDuration::from_micros(400),
            ctrl_msg: SimDuration::from_micros(100),
            aggregator_msg: SimDuration::from_micros(150),
            aggregator_delay: SimDuration::from_micros(1200),
        }
    }
}

impl CostModel {
    /// Price of one quorum check ([`crate::collector::Quorum::work`]):
    /// `aggregated` shares combined, `verified` signature verifications.
    pub fn quorum_check(&self, (aggregated, verified): (u64, u64)) -> SimDuration {
        self.aggregate_per_share.saturating_mul(aggregated) + self.bls_verify.saturating_mul(verified)
    }

    /// The cost model with every *cryptographic* term replaced by this
    /// host's measured bench medians (`BENCH_protocol.json`, crypto suite) —
    /// the fast pairing/wNAF/batch implementations, not the paper's PBC
    /// numbers. Non-crypto terms (message handling, pipelines, consensus
    /// wire) keep the paper-calibrated defaults: they model the testbed,
    /// not this host.
    ///
    /// Used by the Fig. 11d variant that reports per-switch CPU under
    /// measured costs (`bench::fig11d`, which prints it). Refresh
    /// alongside the baseline (a test fails when a literal drifts more than
    /// 25 % from its median): `update_sign` ≈ `threshold_sign_share`,
    /// `bls_verify` is `bls_verify_prepared` (a node verifies under keys
    /// whose line tables it keeps),
    /// `aggregate_per_share` is `threshold_aggregate_q2 / 2`, `mac` (as in the
    /// default) `hmac_tag_ack / 2`, `batch_verify_per_item` `batch_verify_64 / 64`.
    #[must_use]
    pub fn measured() -> Self {
        CostModel {
            bls_verify: SimDuration::from_micros(1390),
            aggregate_per_share: SimDuration::from_micros(75),
            batch_verify_per_item: SimDuration::from_micros(615),
            update_sign: SimDuration::from_micros(155),
            ..CostModel::default()
        }
    }
}

// Reliable delivery (DESIGN.md "Reliable delivery under loss"). The
// paper's southbound channel is TCP, so loss recovery is implicit there;
// the reproduction's simulated network loses raw messages, and these
// clocks make the update path explicitly loss-tolerant. They are part of
// the protocol, not settings. Every stream backs off exponentially from
// its base up to `controller::pending::MAX_BACKOFF`.
//
// The bases sit well above the *loaded* service time of each path
// (flow-completion p99 under a burst is a few hundred ms), not its idle
// latency: a retry timer below the queueing delay retransmits messages
// that were never lost, and on a busy control plane that self-amplifies —
// duplicates add load, load adds delay, delay fires more timers. Loss
// recovery still only costs one base interval.

/// Delay before the first retransmission of an unacked update or a
/// forward, and before a parked Segway body first asks for a ready.
pub const RETRY_BASE: SimDuration = SimDuration::from_millis(150);

/// Delay before a switch first re-sends an unanswered event.
pub const EVENT_RETRY_BASE: SimDuration = SimDuration::from_millis(250);

/// How long a switch lets a below-quorum update bucket age before it first
/// NACKs the control plane for the missing shares.
pub const NACK_TIMEOUT: SimDuration = SimDuration::from_millis(150);

/// Retransmissions allowed per update before it is reported failed, and per
/// event, forward or ready query before it is given up.
pub const RETRY_BUDGET: u32 = 16;

/// NACKs allowed per update bucket.
pub const NACK_BUDGET: u32 = 8;

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Protocol mode.
    pub mode: Mode,
    /// Controllers per domain (ignored for `Centralized`, which always runs
    /// exactly one controller for the whole network).
    pub controllers_per_domain: u32,
    /// Crypto execution mode.
    pub crypto: CryptoMode,
    /// The cost model.
    pub costs: CostModel,
    /// When `false`, every flow tears its rules down on completion
    /// (the paper's "unamortized" setup/teardown mode, Fig. 11c).
    pub rule_reuse: bool,
    /// RNG seed (simulation determinism).
    pub seed: u64,
    /// Heartbeat period for the failure detector; `None` disables automatic
    /// failure detection (benchmarks run without it, as crashes are not part
    /// of any figure). When enabled, a controller silent for 4 periods is
    /// proposed for removal (paper §4.3/§5.1).
    pub heartbeat: Option<SimDuration>,
    /// Cross-domain ordering handshake: when an event's schedule makes an
    /// update depend on updates in *another* domain, the upstream domain
    /// holds it until the downstream domain's quorum reports its whole
    /// segment applied (`SegmentApplied`, DESIGN.md §3).
    /// `false` restores the historical per-domain-only ordering, under
    /// which boundary-crossing flows can transiently black-hole at the
    /// domain edge with zero faults (kept for regression/control runs).
    pub cross_domain_handshake: bool,
    /// Cicero: share-sign each domain-event's update set once at admission
    /// and let a switch hold an update with dependencies until
    /// `⌊(n−1)/3⌋+1` tagged releases (DESIGN.md §3, "Held updates"). `false`
    /// runs the paper's protocol, which signs an update — a set of one —
    /// once its dependencies are acknowledged — what the paper's
    /// flow-setup anchors were measured on, so the cost model's calibration
    /// (`experiment::flow_setup_latency_ms`) runs it.
    pub release_by_tag: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: Mode::Cicero {
                aggregation: Aggregation::Switch,
            },
            controllers_per_domain: 4,
            crypto: CryptoMode::Modeled,
            costs: CostModel::default(),
            rule_reuse: true,
            seed: 1,
            heartbeat: None,
            cross_domain_handshake: true,
            release_by_tag: true,
        }
    }
}

impl EngineConfig {
    /// `true` where the controllers order the updates and the switches hold
    /// them ([`EngineConfig::release_by_tag`] in Cicero): every update is
    /// signed at admission, and one with dependencies goes in on tagged
    /// releases. Otherwise an update is sent when it is released — the
    /// unauthenticated baselines and the paper's Cicero — or the switches
    /// order themselves (Segway).
    pub fn holds_at_switch(&self) -> bool {
        self.release_by_tag && matches!(self.mode, Mode::Cicero { .. })
    }

    /// Convenience: a config for `mode` with defaults otherwise.
    pub fn for_mode(mode: Mode) -> Self {
        let mut c = EngineConfig::default();
        if mode == Mode::Centralized {
            c.controllers_per_domain = 1;
        }
        c.mode = mode;
        c
    }
}

/// Host NIC bandwidth in bits/s (transmission-time model).
const HOST_BANDWIDTH_BPS: u64 = 100_000_000;

/// Transmission time of `bytes` at the host NIC bandwidth.
pub fn tx_time(bytes: u64) -> SimDuration {
    SimDuration::from_nanos(bytes.saturating_mul(8).saturating_mul(1_000_000_000) / HOST_BANDWIDTH_BPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Mode::Centralized.label(), "Centralized");
        assert_eq!(Mode::CrashTolerant.label(), "Crash Tolerant");
        assert_eq!(
            Mode::Cicero {
                aggregation: Aggregation::Switch
            }
            .label(),
            "Cicero"
        );
        assert_eq!(
            Mode::Cicero {
                aggregation: Aggregation::Controller
            }
            .label(),
            "Cicero Agg"
        );
        assert_eq!(Mode::Segway.label(), "Segway");
    }

    #[test]
    fn signed_modes_cover_cicero_and_segway() {
        assert!(Mode::Segway.is_signed());
        assert!(Mode::Cicero {
            aggregation: Aggregation::Switch
        }
        .is_signed());
        assert!(!Mode::Centralized.is_signed());
        assert!(!Mode::CrashTolerant.is_signed());
    }

    /// Committed replay artifacts and configs spell modes this way.
    #[test]
    fn keys_are_the_artifact_spellings_and_parse_back() {
        let keys = Mode::ALL.map(|m| m.key());
        assert_eq!(
            keys,
            ["centralized", "crash_tolerant", "cicero", "cicero_agg", "segway"]
        );
        for mode in Mode::ALL {
            assert_eq!(Mode::parse(mode.key()), Some(mode));
        }
        assert_eq!(Mode::parse("Cicero"), None);
    }

    #[test]
    fn tx_time_model() {
        // 420 kB at 100 Mb/s = 33.6 ms (the paper's Hadoop mean).
        assert_eq!(tx_time(420_000).as_millis_f64(), 33.6);
        assert_eq!(tx_time(0), SimDuration::ZERO);
    }

    #[test]
    fn measured_cost_model_tracks_the_recorded_bench_medians() {
        use substrate::benchkit::suite_medians;
        use substrate::ser::JsonValue;

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_protocol.json");
        let doc = std::fs::read_to_string(path).expect("committed bench baseline");
        let doc = JsonValue::parse(&doc).expect("baseline is JSON");
        let medians = suite_medians(&doc, "crypto").expect("baseline has a crypto suite");
        let ns = |name: &str| match medians.iter().find(|(n, _)| n == name) {
            Some((_, median)) => *median,
            None => panic!("baseline has no crypto entry {name:?}"),
        };
        let m = CostModel::measured();
        for (field, literal, bench_ns) in [
            ("update_sign", m.update_sign, ns("threshold_sign_share")),
            ("bls_verify", m.bls_verify, ns("bls_verify_prepared")),
            (
                "aggregate_per_share",
                m.aggregate_per_share,
                ns("threshold_aggregate_q2") / 2.0,
            ),
            (
                "batch_verify_per_item",
                m.batch_verify_per_item,
                ns("batch_verify_64") / 64.0,
            ),
            ("mac", m.mac, ns("hmac_tag_ack") / 2.0),
        ] {
            let ratio = literal.as_nanos() as f64 / bench_ns;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "CostModel::measured().{field} = {literal:?} is {ratio:.2}× its \
                 BENCH_protocol.json median ({bench_ns:.0} ns): refresh the literal"
            );
        }
    }

    #[test]
    fn centralized_forces_one_controller() {
        let c = EngineConfig::for_mode(Mode::Centralized);
        assert_eq!(c.controllers_per_domain, 1);
    }
}
