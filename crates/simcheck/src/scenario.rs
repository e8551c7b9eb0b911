//! Scenario sampling: a whole deployment — fabric, domains, protocol mode,
//! scheduler, workload, fault plan — as a pure function of a seed.
//!
//! Every cross-reference inside a scenario (flow endpoints, fault targets)
//! is stored as an *abstract index* and resolved modulo the concrete
//! collection at build time, so the shrinker can remove racks, hosts or
//! controllers without ever producing a dangling reference.

use cicero_core::prelude::*;
use controller::scheduler::{
    DependencyGraphScheduler, ReversePathScheduler, UnorderedScheduler, UpdateScheduler,
};
use netmodel::topology::Topology;
use southbound::types::EventId;
use substrate::check::Gen;

/// Serializable stand-in for the update scheduler choice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedTag {
    /// Egress-to-ingress release order (paper §3.1).
    ReversePath,
    /// Dependency-graph parallel release.
    DependencyGraph,
    /// No ordering at all — the known-unsafe baseline. Generated scenarios
    /// never use it; it exists so tests can *inject* the classic
    /// dependency-order regression and watch the oracles catch it.
    Unordered,
}

impl SchedTag {
    /// Builds the scheduler this tag selects.
    pub fn make(self) -> Box<dyn UpdateScheduler> {
        match self {
            SchedTag::ReversePath => Box::new(ReversePathScheduler),
            SchedTag::DependencyGraph => Box::new(DependencyGraphScheduler::new()),
            SchedTag::Unordered => Box::new(UnorderedScheduler),
        }
    }

    /// Stable wire name (replay artifacts).
    pub fn name(self) -> &'static str {
        match self {
            SchedTag::ReversePath => "reverse_path",
            SchedTag::DependencyGraph => "dependency_graph",
            SchedTag::Unordered => "unordered",
        }
    }

    /// Parses [`SchedTag::name`] output.
    pub fn parse(s: &str) -> Option<SchedTag> {
        Some(match s {
            "reverse_path" => SchedTag::ReversePath,
            "dependency_graph" => SchedTag::DependencyGraph,
            "unordered" => SchedTag::Unordered,
            _ => return None,
        })
    }
}

/// One flow: abstract host indices plus size and arrival offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowPlan {
    /// Abstract source host index (mod host count at build time).
    pub src: u32,
    /// Abstract destination host index (forced distinct from `src`).
    pub dst: u32,
    /// Flow size in bytes (clamped to ≥ 64).
    pub bytes: u64,
    /// Arrival offset in milliseconds.
    pub start_ms: u64,
}

/// One abstract fault, resolved against the built engine's directory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Uniform message loss, in permille.
    Drop {
        /// Loss probability × 1000.
        permille: u32,
    },
    /// Uniform message duplication, in permille.
    Duplicate {
        /// Duplication probability × 1000.
        permille: u32,
    },
    /// Crash one controller (index kept off the leader/aggregator slot).
    CrashController {
        /// Abstract domain index.
        domain: u16,
        /// Abstract controller index (resolved into `2..=n`).
        controller: u32,
        /// Crash time in milliseconds.
        at_ms: u64,
    },
    /// Crash one controller *and restart it later* — the durable-state
    /// recovery path (WAL replay, snapshot state sync from a peer). The
    /// crash and its restart are a single fault, so the shrinker can only
    /// keep or drop the pair as a unit, never orphan a restart.
    CrashRecoverController {
        /// Abstract domain index.
        domain: u16,
        /// Abstract controller index (resolved into `2..=n`).
        controller: u32,
        /// Crash time in milliseconds.
        at_ms: u64,
        /// Restart delay after the crash, milliseconds.
        after_ms: u64,
        /// `true` wipes the WAL/snapshot before the restart, forcing a
        /// full state sync from a peer instead of local replay.
        disk_lost: bool,
    },
    /// A healing partition between two controllers of one domain.
    SeverControllers {
        /// Abstract domain index.
        domain: u16,
        /// Abstract first controller index.
        a: u32,
        /// Abstract second controller index (forced distinct).
        b: u32,
        /// Window start, milliseconds.
        from_ms: u64,
        /// Window end (half-open), milliseconds.
        until_ms: u64,
    },
    /// A healing partition between a switch and one of its controllers.
    SeverUplink {
        /// Abstract switch index.
        switch: u32,
        /// Abstract controller index.
        controller: u32,
        /// Window start, milliseconds.
        from_ms: u64,
        /// Window end (half-open), milliseconds.
        until_ms: u64,
    },
    /// A Byzantine controller sends a forged share-signed update straight
    /// to a victim switch (below quorum — must never be applied).
    RogueShares {
        /// Abstract compromised-controller index.
        controller: u32,
        /// Abstract victim-switch index.
        victim: u32,
        /// Injection time in milliseconds.
        at_ms: u64,
    },
    /// Crash one switch *and restart it later* from its durable disk — the
    /// switch-side recovery path (WAL replay of the flow table and, in
    /// Segway mode, the exactly-once release journal). Resolution skips
    /// any switch that is a flow's ingress ToR: waiting flows are RAM-only
    /// by design, so restarting an ingress breaks liveness by
    /// construction, not by bug. Crash and restart are one fault, so the
    /// shrinker can never orphan the restart.
    CrashRecoverSwitch {
        /// Abstract switch index (resolved over non-ingress switches).
        switch: u32,
        /// Crash time in milliseconds.
        at_ms: u64,
        /// Restart delay after the crash, milliseconds.
        after_ms: u64,
    },
    /// A rogue switch sends a forged Segway ready message to a victim
    /// switch — structurally bogus (addressed to a different switch), so a
    /// correct victim must reject it (`Obs::ReadyRejected`) and never
    /// treat it as a gate release. Segway mode only.
    RogueReady {
        /// Abstract compromised-switch index (forced distinct from victim).
        switch: u32,
        /// Abstract victim-switch index.
        victim: u32,
        /// Injection time in milliseconds.
        at_ms: u64,
    },
}

impl Fault {
    /// `true` for the *permanent* crash variant. A crash-recover fault is
    /// deliberately excluded: its restart restores the controller, so the
    /// liveness oracle may still demand a fully drained run.
    pub fn is_crash(&self) -> bool {
        matches!(self, Fault::CrashController { .. })
    }

    /// `true` for the crash-and-restart variants (controller or switch).
    pub fn is_crash_recover(&self) -> bool {
        matches!(
            self,
            Fault::CrashRecoverController { .. } | Fault::CrashRecoverSwitch { .. }
        )
    }
}

/// A complete sampled scenario. Running one is a pure function of this
/// value (see [`crate::run_scenario`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// The generator seed (also the engine's RNG seed).
    pub seed: u64,
    /// ToR switch count of the single-pod fabric (≥ 2).
    pub racks: u16,
    /// Edge/aggregation switch count (≥ 1).
    pub edges: u16,
    /// Hosts attached to each ToR (≥ 1).
    pub hosts_per_rack: u16,
    /// Update domains the fabric is split into (1 = single domain).
    pub domains: u16,
    /// Protocol mode.
    pub mode: Mode,
    /// Update scheduler installed on every controller.
    pub scheduler: SchedTag,
    /// Controllers per domain (≥ 4 for Cicero modes; 1 for centralized).
    pub controllers_per_domain: u32,
    /// The workload.
    pub flows: Vec<FlowPlan>,
    /// Firewall-denied host pairs, as abstract indices.
    pub denied: Vec<(u32, u32)>,
    /// The fault plan.
    pub faults: Vec<Fault>,
    /// Run horizon in milliseconds.
    pub horizon_ms: u64,
}

/// The tag in the high bits of every rogue update's event id. Genuine
/// event ids are `(switch_id << 32) | seq` with small switch ids, so the
/// top 16 bits distinguish injected forgeries unambiguously.
pub const ROGUE_TAG: u64 = 0xBAD0;

/// The event+update id carried by the `k`-th injected rogue update.
pub fn rogue_update_id(k: u64) -> southbound::types::UpdateId {
    southbound::types::UpdateId {
        event: EventId((ROGUE_TAG << 48) | k),
        seq: 0,
    }
}

/// `true` iff this event id belongs to an injected rogue update.
pub fn is_rogue_event(e: EventId) -> bool {
    e.0 >> 48 == ROGUE_TAG
}

impl Scenario {
    /// Samples the scenario for `seed`. Deterministic.
    pub fn generate(seed: u64) -> Scenario {
        let mut g = Gen::from_seed(seed);
        let racks = g.u32_in(2..5) as u16;
        let edges = g.u32_in(1..3) as u16;
        let hosts_per_rack = g.u32_in(1..4) as u16;
        let mode = *g.choose(&[
            Mode::CICERO,
            Mode::CICERO,
            Mode::CICERO_AGG,
            Mode::CrashTolerant,
            Mode::Centralized,
        ]);
        let domains = if mode == Mode::Centralized {
            1
        } else {
            g.u32_in(1..3) as u16
        };
        let controllers_per_domain = match mode {
            Mode::Centralized => 1,
            _ => g.u32_in(4..7),
        };
        let scheduler = if g.f64_unit() < 0.8 {
            SchedTag::ReversePath
        } else {
            SchedTag::DependencyGraph
        };

        let n_flows = g.usize_in(1..9);
        let flows: Vec<FlowPlan> = (0..n_flows)
            .map(|_| FlowPlan {
                src: g.u32(),
                dst: g.u32(),
                bytes: g.u64_in(64..50_000),
                start_ms: g.u64_in(0..40),
            })
            .collect();

        // Deny a pair ~30% of the time; half the time it shadows a real
        // flow (so FlowDenied paths are exercised), half it is unrelated.
        let mut denied = Vec::new();
        if g.f64_unit() < 0.3 {
            if g.bool() && !flows.is_empty() {
                let f = flows[g.usize_in(0..flows.len())];
                denied.push((f.src, f.dst));
            } else {
                denied.push((g.u32(), g.u32()));
            }
        }

        let mut faults = Vec::new();
        if g.f64_unit() < 0.4 {
            faults.push(Fault::Drop {
                permille: g.u32_in(5..150),
            });
        }
        if g.f64_unit() < 0.25 {
            faults.push(Fault::Duplicate {
                permille: g.u32_in(5..100),
            });
        }
        if controllers_per_domain >= 4 && g.f64_unit() < 0.25 {
            faults.push(Fault::CrashController {
                domain: g.u16(),
                controller: g.u32(),
                at_ms: g.u64_in(1..1500),
            });
        }
        if controllers_per_domain >= 2 && g.f64_unit() < 0.3 {
            let from_ms = g.u64_in(1..1500);
            faults.push(Fault::SeverControllers {
                domain: g.u16(),
                a: g.u32(),
                b: g.u32(),
                from_ms,
                until_ms: from_ms + g.u64_in(50..600),
            });
        }
        if g.f64_unit() < 0.3 {
            let from_ms = g.u64_in(1..1500);
            faults.push(Fault::SeverUplink {
                switch: g.u32(),
                controller: g.u32(),
                from_ms,
                until_ms: from_ms + g.u64_in(50..600),
            });
        }
        if matches!(mode, Mode::Cicero { .. }) && g.f64_unit() < 0.3 {
            faults.push(Fault::RogueShares {
                controller: g.u32(),
                victim: g.u32(),
                at_ms: g.u64_in(1..1000),
            });
        }
        // Crash *and restart* a controller — drawn last so adding this arm
        // left every previously sampled scenario field untouched. The time
        // bounds keep the fault inside the benign envelope by construction
        // (at + after + 25 s margin ≤ the 30 s horizon), so benign sweeps
        // exercise the recovery oracle's completion half, not just safety.
        if matches!(mode, Mode::Cicero { .. })
            && controllers_per_domain >= 4
            && g.f64_unit() < 0.25
        {
            faults.push(Fault::CrashRecoverController {
                domain: g.u16(),
                controller: g.u32(),
                at_ms: g.u64_in(1..1200),
                after_ms: g.u64_in(50..800),
                disk_lost: g.bool(),
            });
        }

        let mut s = Scenario {
            seed,
            racks,
            edges,
            hosts_per_rack,
            domains,
            mode,
            scheduler,
            controllers_per_domain,
            flows,
            denied,
            faults,
            horizon_ms: 30_000,
        };

        // Bias a quarter of the sweep toward the cross-domain handshake:
        // force a multi-domain fabric and make the first flow cross the
        // rack-range boundary (src in the first rack, dst in the last), so
        // bounded fuzz sweeps exercise boundary ordering every run rather
        // than only when the dice land there.
        if seed % 4 == 3 {
            if s.mode == Mode::Centralized {
                s.mode = Mode::CICERO;
                s.controllers_per_domain = 4;
            }
            s.domains = s.domains.max(2);
            s.flows[0].src = 0;
            s.flows[0].dst = (s.racks as u32 - 1) * s.hosts_per_rack as u32;
        }
        // A second quarter goes to Segway mode: decentralized execution is
        // audited by every oracle in every bounded sweep, not only when the
        // dice land there. Multi-domain plus a boundary flow makes the
        // switch-to-switch ready chain cross a domain boundary, and every
        // other biased seed plants a rogue-ready fault so the ready
        // rejection surface is exercised continuously too.
        if seed % 4 == 1 {
            s.mode = Mode::Segway;
            s.controllers_per_domain = s.controllers_per_domain.max(4);
            s.domains = s.domains.max(2);
            s.flows[0].src = 0;
            s.flows[0].dst = (s.racks as u32 - 1) * s.hosts_per_rack as u32;
            if seed % 8 == 1 {
                s.faults.push(Fault::RogueReady {
                    switch: (seed >> 16) as u32,
                    victim: (seed >> 24) as u32,
                    at_ms: 1 + seed % 900,
                });
            }
            // Another slice of the biased seeds restarts a (non-ingress)
            // switch mid-update, so the switch WAL-replay path — apply
            // dedup, exactly-once release — is fuzzed continuously. The
            // time bounds keep the fault inside the benign envelope
            // (at + after + 25 s ≤ the 30 s horizon).
            if seed % 8 == 5 {
                s.faults.push(Fault::CrashRecoverSwitch {
                    switch: (seed >> 16) as u32,
                    at_ms: 1 + seed % 800,
                    after_ms: 50 + (seed >> 8) % 400,
                });
            }
        }
        s
    }

    /// [`Scenario::generate`], then forced into a benign crash-recover
    /// shape: Cicero-family mode, a crash-tolerant control plane, the
    /// sampled fault plan minus any permanent crashes, plus exactly one
    /// crash-and-restart fault derived from the seed. Every scenario this
    /// returns is [`Scenario::benign`], so the recovery oracle demands the
    /// restarted controller actually completes its state sync — the
    /// focused sweep behind `simcheck recover`.
    pub fn generate_recovery(seed: u64) -> Scenario {
        let mut s = Scenario::generate(seed);
        if !matches!(s.mode, Mode::Cicero { .. }) {
            s.mode = if seed % 2 == 0 {
                Mode::CICERO
            } else {
                Mode::CICERO_AGG
            };
        }
        s.controllers_per_domain = s.controllers_per_domain.max(4);
        // The whole `⌊(n−1)/3⌋` crash budget goes to the restart fault;
        // sampled permanent crashes (or a sampled crash-recover fault)
        // would overdraw it on n = 4.
        s.faults
            .retain(|f| !f.is_crash() && !f.is_crash_recover());
        s.faults.push(Fault::CrashRecoverController {
            domain: (seed >> 8) as u16,
            controller: (seed >> 16) as u32,
            at_ms: 1 + seed % 800,
            after_ms: 100 + (seed >> 4) % 600,
            disk_lost: seed % 3 == 0,
        });
        s
    }

    /// [`Scenario::generate`], forced into the *secure* (Cicero-family)
    /// modes where every update carries a threshold signature: the sweep
    /// behind `simcheck secure`, which concentrates seeds on the paths the
    /// crypto optimizations changed (signature quorums, batched
    /// aggregator verification, rogue-share rejection) instead of
    /// spending ~40% of them on centralized/crash-tolerant scenarios.
    pub fn generate_secure(seed: u64) -> Scenario {
        let mut s = Scenario::generate(seed);
        if !matches!(s.mode, Mode::Cicero { .. }) {
            s.mode = if seed % 2 == 0 {
                Mode::CICERO
            } else {
                Mode::CICERO_AGG
            };
            s.controllers_per_domain = s.controllers_per_domain.max(4);
        }
        s
    }

    /// [`Scenario::generate`], forced into Segway mode — the focused sweep
    /// behind `simcheck segway`. Guarantees the ≥ 4-controller threshold
    /// control plane Segway's signed metadata requires, keeps the sampled
    /// fault plan, and plants a rogue-ready fault on a quarter of the
    /// seeds so the ready rejection path is audited continuously.
    pub fn generate_segway(seed: u64) -> Scenario {
        let mut s = Scenario::generate(seed);
        s.mode = Mode::Segway;
        s.controllers_per_domain = s.controllers_per_domain.max(4);
        if seed % 4 == 0 {
            s.faults.push(Fault::RogueReady {
                switch: (seed >> 12) as u32,
                victim: (seed >> 20) as u32,
                at_ms: 1 + seed % 900,
            });
        }
        // A second quarter restarts a non-ingress switch mid-update,
        // putting the switch WAL-replay path (apply dedup, exactly-once
        // release) under the focused sweep's recovery oracle.
        if seed % 4 == 2 {
            s.faults.push(Fault::CrashRecoverSwitch {
                switch: (seed >> 12) as u32,
                at_ms: 1 + seed % 800,
                after_ms: 50 + (seed >> 6) % 400,
            });
        }
        s
    }

    /// The concrete fabric: a single pod of ToR + edge switches.
    pub fn topology(&self) -> Topology {
        Topology::single_pod(
            self.racks.max(2),
            self.edges.max(1),
            self.hosts_per_rack.max(1),
        )
    }

    /// `true` if the scenario contains a permanent controller crash.
    pub fn has_crash(&self) -> bool {
        self.faults.iter().any(Fault::is_crash)
    }

    /// `true` if the scenario contains a crash-and-restart fault.
    pub fn has_crash_recover(&self) -> bool {
        self.faults.iter().any(Fault::is_crash_recover)
    }

    /// `true` iff the fault plan provably leaves progress possible, so the
    /// liveness oracle may demand a completed run. The envelope is
    /// deliberately conservative; scenarios outside it still run and are
    /// still checked for safety, just not for liveness.
    ///
    /// * loss/duplication stay far below what the retry budgets absorb;
    /// * at most `⌊(n−1)/3⌋` crashes per domain — a crash-recover fault
    ///   counts toward that budget too, since the controller is down until
    ///   its restart — and never the index-1 slot (bootstrap leader /
    ///   aggregator);
    /// * every restart leaves at least 25 s before the horizon for state
    ///   sync and re-drain;
    /// * partitions all heal at least 25 s before the horizon;
    /// * rogue shares are harmless to a correct switch by construction.
    pub fn benign(&self) -> bool {
        let n = self.controllers_per_domain;
        let tolerated = if n >= 4 { (n as usize - 1) / 3 } else { 0 };
        let mut crashes = 0usize;
        for f in &self.faults {
            match *f {
                Fault::Drop { permille } => {
                    if permille > 200 {
                        return false;
                    }
                }
                Fault::Duplicate { permille } => {
                    if permille > 150 {
                        return false;
                    }
                }
                Fault::CrashController { .. } => {
                    crashes += 1;
                    if crashes > tolerated {
                        return false;
                    }
                }
                Fault::CrashRecoverController { at_ms, after_ms, .. } => {
                    crashes += 1;
                    if crashes > tolerated {
                        return false;
                    }
                    if at_ms + after_ms + 25_000 > self.horizon_ms {
                        return false;
                    }
                }
                // A switch restart keeps its disk and replays its WAL; it
                // does not draw on the controller crash budget. Liveness
                // rides the controller retransmission backstop, so only
                // the re-drain margin matters.
                Fault::CrashRecoverSwitch { at_ms, after_ms, .. } => {
                    if at_ms + after_ms + 25_000 > self.horizon_ms {
                        return false;
                    }
                }
                Fault::SeverControllers { until_ms, .. }
                | Fault::SeverUplink { until_ms, .. } => {
                    if until_ms + 25_000 > self.horizon_ms {
                        return false;
                    }
                }
                // Rogue injections are harmless to a correct receiver by
                // construction: a single share never reaches quorum, and a
                // misdirected ready fails the target binding check.
                Fault::RogueShares { .. } | Fault::RogueReady { .. } => {}
            }
        }
        true
    }
}
