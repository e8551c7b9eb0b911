//! The invariant-oracle registry: every scenario run is judged against the
//! paper's trace properties, reconstructed purely from the observation
//! stream (the oracles never peek at actor internals, so they hold for any
//! implementation of the protocol).

use crate::scenario::{is_rogue_event, Fault, Scenario};
use cicero_core::audit::{audit_flow, ReplayState};
use cicero_core::ctrl::barrier_id;
use cicero_core::prelude::*;
use netmodel::linkload::LinkLoad;
use netmodel::routing::route;
use netmodel::topology::Topology;
use simnet::sim::Observation;
use southbound::types::{DomainId, EventId, FlowAction, FlowMatch, NextHop, SwitchId, UpdateId};
use workload::gen::FlowSpec;

/// One invariant violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn violation(out: &mut Vec<Violation>, oracle: &'static str, detail: String) {
    out.push(Violation { oracle, detail });
}

/// Runs every oracle over one finished run.
pub fn check_all(
    s: &Scenario,
    topo: &Topology,
    flows: &[FlowSpec],
    obs: &[Observation<Obs>],
    report: &RunReport,
) -> Vec<Violation> {
    let mut v = Vec::new();
    consistency(s, topo, flows, obs, &mut v);
    security(s, obs, &mut v);
    capacity(s, topo, flows, obs, &mut v);
    liveness(s, report, &mut v);
    agreement(s, topo, obs, &mut v);
    recovery(s, obs, &mut v);
    telemetry(s, obs, &mut v);
    v
}

/// **Consistency** (paper Table 1): replay every applied update and walk
/// each flow after each step — no transient loop, black hole, policy
/// bypass or misdelivery may ever be live.
///
/// Scope: **end-to-end**. The cross-domain ordering handshake (DESIGN.md
/// §3) extends the reverse-path guarantee across domain boundaries, so the
/// audit walks each flow's full route even when it crosses domains — a
/// transient black hole at a boundary is a real violation, not an accepted
/// limitation. (Earlier revisions audited per-domain path segments only,
/// which masked exactly that hazard.)
fn consistency(
    s: &Scenario,
    topo: &Topology,
    flows: &[FlowSpec],
    obs: &[Observation<Obs>],
    out: &mut Vec<Violation>,
) {
    let denied = s.denied_matches(topo);
    let mut audited = std::collections::BTreeSet::new();
    for f in flows {
        let m = FlowMatch {
            src: f.src,
            dst: f.dst,
        };
        let Some(r) = route(topo, f.src, f.dst) else {
            continue;
        };
        let ingress = r.path[0];
        if !audited.insert((ingress, m)) {
            continue;
        }
        let is_denied = denied.contains(&m);
        for h in audit_flow(obs, ingress, m, is_denied) {
            violation(
                out,
                "consistency",
                format!(
                    "flow {:?}->{:?} from {:?}: {:?} live after applied step {}",
                    m.src, m.dst, ingress, h.outcome, h.step
                ),
            );
        }
    }
}

/// **Security** (paper §3.2): no update is applied below the Byzantine
/// quorum the mode promises, and no injected rogue update ever lands. The
/// quorum is recomputed here from first principles (`⌊(n−1)/3⌋ + 1`), not
/// read from the engine, so a regression in the engine's own quorum
/// arithmetic is caught too.
fn security(s: &Scenario, obs: &[Observation<Obs>], out: &mut Vec<Violation>) {
    let cicero = s.mode.is_signed();
    let quorum = (s.controllers_per_domain - 1) / 3 + 1;
    for o in obs {
        let Obs::UpdateApplied {
            switch,
            update,
            signers,
            ..
        } = o.value
        else {
            continue;
        };
        if is_rogue_event(update.event) {
            violation(
                out,
                "security",
                format!("switch {switch:?} applied injected rogue update {update:?}"),
            );
        }
        if cicero && signers < quorum {
            violation(
                out,
                "security",
                format!(
                    "switch {switch:?} applied {update:?} with {signers} signature \
                     shares, below the quorum of {quorum}"
                ),
            );
        }
    }
}

/// **Capacity** (paper Table 1, congestion freedom): at no intermediate
/// rule state may the delivered paths, each demanding one abstract
/// bandwidth unit, oversubscribe a link.
fn capacity(
    s: &Scenario,
    topo: &Topology,
    flows: &[FlowSpec],
    obs: &[Observation<Obs>],
    out: &mut Vec<Violation>,
) {
    let denied = s.denied_matches(topo);
    // Unique (ingress, match) pairs with their demand multiplicity.
    let mut demands: std::collections::BTreeMap<(SwitchId, FlowMatch), u64> =
        std::collections::BTreeMap::new();
    for f in flows {
        let m = FlowMatch {
            src: f.src,
            dst: f.dst,
        };
        if denied.contains(&m) {
            continue;
        }
        if let Some(r) = route(topo, f.src, f.dst) {
            *demands.entry((r.path[0], m)).or_insert(0) += 1;
        }
    }
    let mut state = ReplayState::new();
    for (step, o) in obs.iter().enumerate() {
        let Obs::UpdateApplied { switch, kind, .. } = o.value else {
            continue;
        };
        state.apply(switch, kind);
        let mut load = LinkLoad::new();
        for (&(ingress, m), &bw) in &demands {
            if let Some(path) = delivered_path(&state, ingress, m) {
                load.reserve_path(&path, bw);
            }
        }
        let over = load.overloaded_links(topo);
        if !over.is_empty() {
            let (a, b, used, cap) = over[0];
            violation(
                out,
                "capacity",
                format!(
                    "after applied step {step}: link {a:?}-{b:?} carries {used} \
                     of capacity {cap}"
                ),
            );
            return; // one report per run; later steps only repeat it
        }
    }
}

/// The switch path a delivered walk takes, or `None` when the walk does
/// not (yet) reach a host.
fn delivered_path(state: &ReplayState, ingress: SwitchId, m: FlowMatch) -> Option<Vec<SwitchId>> {
    let mut path = vec![ingress];
    let mut cur = ingress;
    loop {
        match state.rule(cur, m)? {
            FlowAction::Deny => return None,
            FlowAction::Forward(NextHop::Host(_)) => return Some(path),
            FlowAction::Forward(NextHop::Switch(next)) => {
                if path.contains(&next) {
                    return None; // loop: the consistency oracle reports it
                }
                path.push(next);
                cur = next;
            }
        }
    }
}

/// **Liveness**: when the fault plan provably leaves progress possible
/// ([`Scenario::benign`]), every injected flow must resolve; without
/// crashes the whole pipeline must also drain (acks in, no stall, no
/// abandoned updates). Crashed controllers legitimately never ack their
/// in-flight updates, so crash scenarios only demand flow resolution.
fn liveness(s: &Scenario, report: &RunReport, out: &mut Vec<Violation>) {
    if !s.benign() {
        return;
    }
    if report.resolved_flows < report.injected_flows {
        violation(
            out,
            "liveness",
            format!("progress was possible, yet: {report}"),
        );
        return;
    }
    if !s.has_crash() && !report.completed {
        violation(
            out,
            "liveness",
            format!("pipeline failed to drain without any crash: {report}"),
        );
    }
}

/// **Recovery** (DESIGN.md §Durability): crash-recovery is exactly-once
/// and, when progress is possible, complete.
///
/// * Under *any* fault plan, no switch ever applies the same update id
///   twice — a controller replaying its WAL (or retrying after a restart)
///   re-sends updates, and the switch-side dedup must absorb every one of
///   them. Checked unconditionally: double application would silently
///   corrupt rule state even in runs the consistency walk happens to pass.
/// * In a benign scenario, every crash-recover fault must end with the
///   restarted controller completing its state sync (one
///   `ControllerRecovered` observation per restart). Skipped when a
///   *permanent* crash is also present — it may have taken down the very
///   peer the restarted controller would sync its snapshot from.
fn recovery(s: &Scenario, obs: &[Observation<Obs>], out: &mut Vec<Violation>) {
    let mut seen = std::collections::BTreeSet::new();
    let mut released = std::collections::BTreeSet::new();
    for o in obs {
        if let Obs::UpdateApplied { switch, update, .. } = o.value {
            if !seen.insert((switch, update)) {
                violation(
                    out,
                    "recovery",
                    format!("switch {switch:?} applied update {update:?} twice"),
                );
            }
        }
        // Exactly-once release (Segway): no switch ever announces the same
        // applied update to the same neighbor twice — re-delivered metadata
        // and retries must be absorbed by the release dedup. (Bare
        // retransmissions of an announced ready have their own
        // observation and are legitimate.)
        if let Obs::ReadySent { from, to, update } = o.value {
            if !released.insert((from, to, update)) {
                violation(
                    out,
                    "recovery",
                    format!(
                        "switch {from:?} released {update:?} to {to:?} twice \
                         (exactly-once release violated)"
                    ),
                );
            }
        }
    }
    let restarts = s
        .faults
        .iter()
        .filter(|f| matches!(f, Fault::CrashRecoverController { .. }))
        .count();
    if restarts == 0 || !s.benign() || s.has_crash() {
        return;
    }
    let recovered = obs
        .iter()
        .filter(|o| matches!(o.value, Obs::ControllerRecovered { .. }))
        .count();
    if recovered != restarts {
        violation(
            out,
            "recovery",
            format!(
                "{restarts} crash-recover fault(s) scheduled, but {recovered} \
                 controller(s) completed state sync"
            ),
        );
    }
}

/// **Telemetry** (protocol-flow audit): the reliable-delivery and
/// cross-domain handshake observations must be internally consistent —
/// every responsive observation is preceded by the stimulus it claims to
/// answer, exhaustion/terminal observations fire at most once per subject,
/// and counters carry sane values: every re-send stream numbers its
/// attempts 1, 2, 3, … with no gap (the one numbering of
/// `controller::pending::{RetryTable, Kept}`), one rule for every kind.
/// The match below names every `Obs` variant and must stay exhaustive (no
/// catch-all arm): a new observation fails to compile here until an oracle
/// audits it, and an actor emitting one of these variants with wrong
/// bookkeeping fails the run instead of merely skewing a figure.
///
/// Pairing and at-most-once checks on *controller-side* observations are
/// gated on runs without crash faults: WAL replay re-drives the delivery
/// state machines with observations muted, so a restarted controller's
/// "first send" can be invisible while its later retransmission is not.
/// Switch-side observations and pure value checks hold unconditionally:
/// a restarted switch replays its WAL with no observation muting, so its
/// trace stays pairable (a recovered release is re-sent only when asked
/// for, as a retransmission of the pre-crash `ReadySent`; pending events
/// and ready queries are RAM-only and die with the first life). The
/// gap-free attempt check is the exception: it is gated on crash-free runs
/// for both actors, because any restart legitimately resets the counters.
/// Flow resolutions are additionally exempted under `Fault::Duplicate`,
/// which can legitimately double-fire them.
///
/// Held updates (Cicero) pair in both directions: a switch applies one only
/// after releases from at least `⌊(n−1)/3⌋+1` distinct controllers were
/// sent (checked unless a controller restarts, whose replayed releases are
/// muted), and a controller releases one only after it accepted the ack of
/// each of its dependencies — or released the dependency's barrier. So the
/// release order is checked independently of the switch's own count.
fn telemetry(s: &Scenario, obs: &[Observation<Obs>], out: &mut Vec<Violation>) {
    let clean_replay = !s.has_crash() && !s.has_crash_recover();
    let quorum = ((s.controllers_per_domain - 1) / 3 + 1) as usize;
    let injected = |kind: fn(&Fault) -> bool| s.faults.iter().any(kind);
    let no_dup = !injected(|f| matches!(f, Fault::Duplicate { .. }));
    let rogue = injected(|f| matches!(f, Fault::RogueShares { .. }));
    let rogue_ready = injected(|f| matches!(f, Fault::RogueReady { .. }));

    use std::collections::{BTreeMap, BTreeSet};
    let mut applied = BTreeSet::new(); // (switch, update)
    let mut nacked = BTreeSet::new(); // update
    let mut reported = BTreeSet::new(); // (event, segment)
    let mut reported_once = BTreeSet::new(); // (domain, controller, event, segment)
    let mut released_once = BTreeSet::new(); // (domain, controller, event, segment)
    let mut delivered = BTreeSet::new(); // (domain, controller, event)
    let mut processed_once = BTreeSet::new(); // (domain, event)
    let mut upd_exhausted_once = BTreeSet::new(); // (domain, controller, update)
    let mut ev_exhausted_once = BTreeSet::new(); // (switch, event)
    let mut completed_once = BTreeSet::new(); // flow
    let mut denied_once = BTreeSet::new(); // flow
    // Segway readies per (from, to, update): where the release was announced.
    let mut ready_sent: BTreeMap<_, usize> = BTreeMap::new();
    // Where each switch last applies an update of each event: past it, the
    // switch holds no parked body of that event that ever goes in.
    let mut last_apply = BTreeMap::new(); // (switch, event) -> index
    for (i, o) in obs.iter().enumerate() {
        if let Obs::UpdateApplied { switch, update, .. } = o.value {
            last_apply.insert((switch, update.event), i);
        }
    }
    // Held updates: each controller's dependencies of each, what it
    // accepted (acks, released barriers), and who released each.
    let mut held: BTreeMap<(DomainId, u32, UpdateId), Vec<UpdateId>> = BTreeMap::new();
    let mut held_anywhere = BTreeSet::new(); // update
    let mut accepted = BTreeSet::new(); // (domain, controller, update or barrier)
    let mut releasers: BTreeMap<UpdateId, BTreeSet<(DomainId, u32)>> = BTreeMap::new();
    let mut phases: BTreeMap<_, BTreeSet<u64>> = BTreeMap::new();
    // Highest attempt seen per re-send stream `(kind, sender + key)`; the
    // requests made per cause, and the re-sends per stream answering one.
    let mut last_attempt: BTreeMap<(&'static str, String), u32> = BTreeMap::new();
    let mut requests: BTreeMap<Cause, usize> = BTreeMap::new();
    let mut answers: BTreeMap<String, usize> = BTreeMap::new();
    // NACK-driven resync replies since the stream's last retransmission:
    // each spends one attempt number of its update without announcing it.
    let mut resyncs: BTreeMap<String, u32> = BTreeMap::new();

    let bad = |out: &mut Vec<Violation>, detail: String| violation(out, "telemetry", detail);
    for (i, o) in obs.iter().enumerate() {
        // The one re-send rule. Attempts are 1-based always and, on
        // crash-free runs, gap-free: exactly one past the stream's last,
        // less the numbers resync replies spent silently. A re-send that
        // answers a request follows one, once each, unless the network
        // duplicated the request.
        if let Some((kind, stream, attempt, cause)) = resend(&o.value) {
            let slack = resyncs.remove(&stream).unwrap_or(0);
            let last = last_attempt.entry((kind, stream.clone())).or_insert(0);
            let in_order = (*last + 1..=*last + 1 + slack).contains(&attempt);
            if attempt < 1 || (clean_replay && !in_order) {
                let why = "attempts are 1-based and gap-free";
                bad(out, format!("{kind} re-send of {stream} numbered {attempt} after {last} ({why})"));
            }
            *last = (*last).max(attempt);
            if let Some(cause) = cause {
                let asked = requests.get(&cause).copied().unwrap_or(0);
                let sent = answers.entry(stream.clone()).or_insert(0);
                *sent += 1;
                if no_dup && *sent > asked {
                    bad(out, format!("{kind} re-send of {stream} made {sent} times for {asked} {cause:?}"));
                }
            }
        }
        match o.value {
            Obs::FlowCompleted { flow, start } => {
                if o.at < start {
                    bad(
                        out,
                        format!("flow {flow:?} completed at {:?}, before its arrival {start:?}", o.at),
                    );
                }
                if clean_replay && no_dup && !completed_once.insert(flow) {
                    bad(out, format!("flow {flow:?} reported completed twice"));
                }
            }
            Obs::FlowDenied { flow } => {
                if clean_replay && no_dup && !denied_once.insert(flow) {
                    bad(out, format!("flow {flow:?} reported denied twice"));
                }
            }
            Obs::UpdateApplied { switch, update, .. } => {
                applied.insert((switch, update));
                let releases = releasers.get(&update).map_or(0, BTreeSet::len);
                if !s.has_crash_recover() && held_anywhere.contains(&update) && releases < quorum {
                    bad(
                        out,
                        format!(
                            "switch {switch:?} applied held {update:?} on {releases} release(s), \
                             below the quorum of {quorum}"
                        ),
                    );
                }
            }
            Obs::UpdateRejected { switch, update } => {
                if !rogue {
                    bad(
                        out,
                        format!(
                            "switch {switch:?} rejected {update:?} though no rogue-share \
                             fault was injected — a legitimate quorum failed validation"
                        ),
                    );
                }
            }
            Obs::EventProcessed { domain, event } => {
                if clean_replay && !processed_once.insert((domain, event)) {
                    bad(
                        out,
                        format!("domain {domain:?} reported event {event:?} processed twice"),
                    );
                }
            }
            Obs::PhaseChanged { domain, phase } => {
                phases.entry(domain).or_default().insert(phase);
            }
            Obs::UpdateRetryExhausted {
                domain,
                controller,
                update,
            } => {
                if clean_replay && !upd_exhausted_once.insert((domain, controller, update)) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} exhausted \
                             {update:?}'s retry budget twice"
                        ),
                    );
                }
            }
            Obs::AckRetransmitted { switch, update } => {
                if !applied.contains(&(switch, update)) {
                    bad(
                        out,
                        format!("switch {switch:?} re-acked {update:?} without having applied it"),
                    );
                }
            }
            Obs::EventRetryExhausted { switch, event } => {
                if !ev_exhausted_once.insert((switch, event)) {
                    bad(
                        out,
                        format!(
                            "switch {switch:?} exhausted event {event:?}'s retry budget twice"
                        ),
                    );
                }
            }
            Obs::NackSent { update, .. } => {
                nacked.insert(update);
            }
            Obs::ResyncReplied {
                domain,
                controller,
                update,
            } => {
                if !nacked.contains(&update) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} answered a resync \
                             for {update:?} that no switch ever NACKed"
                        ),
                    );
                }
                *resyncs
                    .entry(format!("{domain:?}/{controller} {update:?}"))
                    .or_insert(0) += 1;
            }
            Obs::SegmentReported {
                domain,
                controller,
                event,
                segment,
            } => {
                if clean_replay && !reported_once.insert((domain, controller, event, segment)) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} reported segment \
                             {segment} of {event:?} twice (retransmissions have their own \
                             observation)"
                        ),
                    );
                }
                reported.insert((event, segment));
            }
            Obs::SegmentRetransmitted { domain, controller, event, segment, .. } => {
                let reporter = (domain, controller, event, segment);
                if clean_replay && !reported_once.contains(&reporter) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} re-sent its report \
                             of segment {segment} of {event:?} before reporting it"
                        ),
                    );
                }
            }
            Obs::BoundaryReleased {
                domain,
                controller,
                event,
                segment,
            } => {
                accepted.insert((domain, controller, barrier_id(event, segment)));
                if clean_replay && !reported.contains(&(event, segment)) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} released the boundary for segment {segment} \
                             of {event:?} without any downstream report"
                        ),
                    );
                }
                if clean_replay && !released_once.insert((domain, controller, event, segment)) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} released the boundary \
                             for segment {segment} of {event:?} twice"
                        ),
                    );
                }
            }
            Obs::SnapshotTaken {
                domain,
                controller,
                compacted,
            } => {
                if compacted < 1 {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} took a snapshot \
                             compacting {compacted} records (quiescent-point snapshots \
                             must compact at least one)"
                        ),
                    );
                }
            }
            Obs::ForwardRetransmitted { domain, controller, event, .. } => {
                // Only a schedule waiting on another domain re-forwards: the
                // sender delivered the event (simcheck traces every delivery).
                if clean_replay && !delivered.contains(&(domain, controller, event)) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} re-forwarded \
                             {event:?} without having delivered it"
                        ),
                    );
                }
                *requests.entry(Cause::Reforward(event)).or_default() += 1;
            }
            Obs::ReadySent { from, to, update } => {
                // At-most-once per (from, to, update) is the *recovery*
                // oracle's check; here it only seeds the pairing below.
                ready_sent.entry((from, to, update)).or_insert(i);
            }
            Obs::ReadyQueried { switch, update, from, .. } => {
                // Only a neighbor's closed gate under a parked body is asked
                // about: once the releaser announced the ready and the asker
                // then applied its last update of that event, the ready was
                // accepted and nothing of the event is parked any more.
                let announced = ready_sent.get(&(from, switch, update));
                let applied = last_apply.get(&(switch, update.event));
                let settled = announced.zip(applied).is_some_and(|(a, l)| a < l && *l < i);
                if switch == from || settled {
                    bad(
                        out,
                        format!(
                            "switch {switch:?} asked {from:?} for the ready of {update:?} \
                             with no body parked on it (already accepted: {settled})"
                        ),
                    );
                }
                *requests.entry(Cause::Ask(from, switch, update)).or_default() += 1;
            }
            Obs::ReadyRetransmitted { from, to, update, .. } => {
                // Only an announced release is re-sent.
                if !ready_sent.contains_key(&(from, to, update)) {
                    bad(
                        out,
                        format!(
                            "switch {from:?} re-sent a ready for {update:?} to {to:?} it \
                             never released"
                        ),
                    );
                }
            }
            Obs::ReadyRejected { switch, update, from } => {
                if !rogue_ready {
                    bad(
                        out,
                        format!(
                            "switch {switch:?} rejected a ready for {update:?} from \
                             {from:?} though no rogue-ready fault was injected — a \
                             legitimate neighbor release failed validation"
                        ),
                    );
                }
            }
            Obs::EventDelivered {
                domain,
                controller,
                event,
            } => {
                delivered.insert((domain, controller, event));
            }
            Obs::UpdateHeld { domain, controller, update, dep } => {
                held.entry((domain, controller, update)).or_default().push(dep);
                held_anywhere.insert(update);
            }
            Obs::AckAccepted { domain, controller, update } => {
                accepted.insert((domain, controller, update));
            }
            Obs::ReleaseSent { domain, controller, update, .. } => {
                releasers.entry(update).or_default().insert((domain, controller));
                let deps = held.get(&(domain, controller, update));
                let waits = |d: &&UpdateId| !accepted.contains(&(domain, controller, **d));
                let open = deps.into_iter().flatten().find(waits);
                if clean_replay && (deps.is_none() || open.is_some()) {
                    bad(
                        out,
                        format!(
                            "domain {domain:?} controller {controller} released {update:?} \
                             before accepting its dependency {open:?} (held: {})",
                            deps.is_some()
                        ),
                    );
                }
            }
            // Judged by the re-send rule above, or by the recovery oracle.
            Obs::UpdateRetransmitted { .. } | Obs::EventRetransmitted { .. } => {}
            Obs::ControllerRecovered { .. } => {}
        }
    }
    if clean_replay {
        // Membership phases advance one step at a time; the distinct values
        // a domain's controllers report must form a contiguous run.
        for (domain, vals) in &phases {
            let mut prev = None;
            for &p in vals {
                if let Some(q) = prev {
                    if p != q + 1 {
                        bad(
                            out,
                            format!(
                                "domain {domain:?} skipped membership phases: saw {q} \
                                 then {p} with nothing between"
                            ),
                        );
                    }
                }
                prev = Some(p);
            }
        }
    }
}

/// A request a keeper answers with a re-send: any controller's re-forward
/// of an event, or switch `.1`'s query to `.0` for the ready of `.2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Cause {
    Reforward(EventId),
    Ask(SwitchId, SwitchId, UpdateId),
}

/// A re-send as the one re-send rule reads it: kind, stream (sender and
/// key), attempt, and the request it answers — `None` when the keeper's own
/// retry clock sent it.
fn resend(o: &Obs) -> Option<(&'static str, String, u32, Option<Cause>)> {
    Some(match *o {
        Obs::UpdateRetransmitted { domain, controller, update, attempt } => {
            ("update", format!("{domain:?}/{controller} {update:?}"), attempt, None)
        }
        Obs::EventRetransmitted { switch, event, attempt } => {
            ("event", format!("{switch:?} {event:?}"), attempt, None)
        }
        Obs::ForwardRetransmitted { domain, controller, event, attempt } => {
            ("forward", format!("{domain:?}/{controller} {event:?}"), attempt, None)
        }
        Obs::SegmentRetransmitted { domain, controller, event, segment, attempt } => {
            let stream = format!("{domain:?}/{controller} {event:?}/{segment}");
            ("segment", stream, attempt, Some(Cause::Reforward(event)))
        }
        Obs::ReadyQueried { switch, update, from, attempt } => {
            ("ready-query", format!("{switch:?}<-{from:?} {update:?}"), attempt, None)
        }
        Obs::ReadyRetransmitted { from, to, update, attempt } => {
            let stream = format!("{from:?}->{to:?} {update:?}");
            ("ready", stream, attempt, Some(Cause::Ask(from, to, update)))
        }
        _ => return None,
    })
}

/// **Agreement** (paper §4.4): within each domain every controller's
/// delivered event sequence is a prefix of the longest one. Controllers
/// that recovered through state sync may have gaps (synced deliveries
/// are replayed muted); on runs without restarts the check is the strict
/// prefix check. The one
/// controller a fault restarts *with its disk wiped* is a replacement
/// machine and is judged life by life — it may deliver again what it had
/// delivered alone before the crash; nobody else is exempted.
fn agreement(s: &Scenario, topo: &Topology, obs: &[Observation<Obs>], out: &mut Vec<Violation>) {
    if let Err(e) = check_event_linearizability(obs, &amnesiac(s, topo)) {
        violation(out, "agreement", e);
    }
}

/// The `(domain, controller)` victims of this scenario's disk-lost
/// crash-recover faults.
fn amnesiac(s: &Scenario, topo: &Topology) -> std::collections::BTreeSet<(DomainId, u32)> {
    let domains = s.domain_map(topo).domains();
    s.faults
        .iter()
        .filter_map(|f| match *f {
            Fault::CrashRecoverController {
                domain,
                controller,
                disk_lost: true,
                ..
            } => s.crash_victim(&domains, domain, controller).map(|(d, c)| (d, c.0)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::node::NodeId;
    use southbound::types::{FlowMatch, HostId, UpdateKind};

    fn verdicts(faults: Vec<Fault>, values: Vec<Obs>) -> Vec<Violation> {
        let mut s = Scenario::generate(0);
        s.faults = faults;
        let obs: Vec<Observation<Obs>> = values
            .into_iter()
            .map(|value| Observation {
                at: SimTime::ZERO,
                node: NodeId(0),
                value,
            })
            .collect();
        let mut out = Vec::new();
        telemetry(&s, &obs, &mut out);
        out
    }

    /// One stream of re-send `kind` numbered `attempts`, each after the
    /// request it answers and after whatever its stream presupposes.
    fn resends(kind: &str, attempts: &[u32]) -> Vec<Obs> {
        let (event, segment, (up, down)) = (EventId(7), 1, (DomainId(0), DomainId(1)));
        let update = UpdateId { event, seq: 2 };
        let (from, to) = (SwitchId(3), SwitchId(1));
        let fwd = |attempt| Obs::ForwardRetransmitted {
            domain: up,
            controller: 2,
            event,
            attempt,
        };
        let delivered = Obs::EventDelivered {
            domain: up,
            controller: 2,
            event,
        };
        let (mut trace, resend): (Vec<Obs>, &dyn Fn(u32) -> Obs) = match kind {
            "update" => (
                vec![],
                &|attempt| Obs::UpdateRetransmitted {
                    domain: up,
                    controller: 1,
                    update,
                    attempt,
                },
            ),
            "event" => (
                vec![],
                &|attempt| Obs::EventRetransmitted {
                    switch: from,
                    event,
                    attempt,
                },
            ),
            "forward" => (vec![delivered], &fwd),
            "segment" => (
                vec![
                    delivered,
                    Obs::SegmentReported {
                        domain: down,
                        controller: 3,
                        event,
                        segment,
                    },
                ],
                &|attempt| Obs::SegmentRetransmitted {
                    domain: down,
                    controller: 3,
                    event,
                    segment,
                    attempt,
                },
            ),
            "ready" => (
                vec![Obs::ReadySent { from, to, update }],
                &|attempt| Obs::ReadyRetransmitted {
                    from,
                    to,
                    update,
                    attempt,
                },
            ),
            _ => unreachable!("no re-send kind {kind}"),
        };
        for (k, &attempt) in (1..).zip(attempts) {
            match kind {
                "segment" => trace.push(fwd(k)),
                "ready" => trace.push(Obs::ReadyQueried {
                    switch: to,
                    update,
                    from,
                    attempt: k,
                }),
                _ => {}
            }
            trace.push(resend(attempt));
        }
        trace
    }

    #[test]
    fn attempt_numbering_must_start_at_one_and_leave_no_gap() {
        for kind in ["update", "event", "forward", "segment", "ready"] {
            assert!(verdicts(vec![], resends(kind, &[1, 2, 3, 4])).is_empty(), "{kind}");
            // Starting at 2 (the first send counted as an attempt), skipping
            // a number, and repeating one are all numbering bugs.
            for wrong in [vec![2, 3], vec![1, 3], vec![1, 1]] {
                let v = verdicts(vec![], resends(kind, &wrong));
                assert_eq!(v.len(), 1, "{kind} {wrong:?} must be flagged once: {v:?}");
                assert_eq!(v[0].oracle, "telemetry");
            }
            // A restart legitimately resets the counters.
            let restart = Fault::CrashRecoverSwitch {
                switch: 0,
                at_ms: 10,
                after_ms: 10,
            };
            assert!(verdicts(vec![restart], resends(kind, &[1, 1])).is_empty(), "{kind}");
        }
    }

    #[test]
    fn resync_replies_explain_their_numbering() {
        let update = UpdateId {
            event: EventId(7),
            seq: 0,
        };
        let rtx = |attempt| Obs::UpdateRetransmitted {
            domain: DomainId(0),
            controller: 1,
            update,
            attempt,
        };
        let nack = Obs::NackSent {
            switch: SwitchId(3),
            update,
            have: 1,
        };
        let resync = Obs::ResyncReplied {
            domain: DomainId(0),
            controller: 1,
            update,
        };
        // A NACK-driven resync reply spends attempt 2 without announcing it.
        assert!(verdicts(vec![], vec![rtx(1), nack, resync, rtx(3)]).is_empty());
        assert_eq!(verdicts(vec![], vec![rtx(1), rtx(3)]).len(), 1);
    }

    #[test]
    fn a_reforward_needs_a_delivery_and_a_resent_share_needs_a_reforward() {
        let (event, segment) = (EventId(7), 1);
        let (up, down) = (DomainId(0), DomainId(1));
        let delivered = Obs::EventDelivered {
            domain: up,
            controller: 2,
            event,
        };
        let reported = Obs::SegmentReported {
            domain: down,
            controller: 3,
            event,
            segment,
        };
        let fwd = |attempt| Obs::ForwardRetransmitted {
            domain: up,
            controller: 2,
            event,
            attempt,
        };
        let resent = |attempt| Obs::SegmentRetransmitted {
            domain: down,
            controller: 3,
            event,
            segment,
            attempt,
        };
        let released = Obs::BoundaryReleased {
            domain: up,
            controller: 2,
            event,
            segment,
        };
        // The forward outlives the release until the event's last own update
        // is acked: a re-forward after it is lawful, and may draw a reply.
        let lawful = vec![
            delivered.clone(),
            reported.clone(),
            fwd(1),
            resent(1),
            fwd(2),
            resent(2),
            released,
            fwd(3),
            resent(3),
        ];
        assert!(verdicts(vec![], lawful).is_empty());
        let flagged = |faults: Vec<Fault>, obs: Vec<Obs>| verdicts(faults, obs).len();
        // Re-forwarding an event never delivered; one stream per event,
        // numbered 1, 2, 3, … with no repeat and no gap.
        assert_eq!(flagged(vec![], vec![reported.clone(), fwd(1)]), 1);
        assert_eq!(flagged(vec![], vec![delivered.clone(), fwd(1), fwd(1)]), 1);
        assert_eq!(flagged(vec![], vec![delivered.clone(), fwd(1), fwd(3)]), 1);
        // Re-sending unasked, twice for one re-forward (unless the network
        // duplicated it), or before ever reporting.
        let unasked = vec![delivered.clone(), reported.clone(), resent(1)];
        assert_eq!(flagged(vec![], unasked), 1);
        let twice = vec![delivered.clone(), reported, fwd(1), resent(1), resent(2)];
        assert_eq!(flagged(vec![], twice.clone()), 1);
        assert_eq!(flagged(vec![Fault::Duplicate { permille: 100 }], twice), 0);
        assert_eq!(flagged(vec![], vec![delivered, fwd(1), resent(1)]), 1);
    }

    #[test]
    fn a_ready_query_needs_a_parked_body_and_a_resent_ready_needs_a_query() {
        let (from, to) = (SwitchId(3), SwitchId(1));
        let update = UpdateId {
            event: EventId(7),
            seq: 2,
        };
        let sent = Obs::ReadySent { from, to, update };
        let query = |attempt| Obs::ReadyQueried {
            switch: to,
            update,
            from,
            attempt,
        };
        let resent = |attempt| Obs::ReadyRetransmitted {
            from,
            to,
            update,
            attempt,
        };
        // `to` applies its (gated) update of the same event.
        let applied = Obs::UpdateApplied {
            switch: to,
            update: UpdateId {
                event: EventId(7),
                seq: 1,
            },
            kind: UpdateKind::Remove(FlowMatch {
                src: HostId(0),
                dst: HostId(1),
            }),
            signers: 2,
        };
        // Asking before the release exists draws no answer; afterwards
        // every answer has its query.
        let lawful = vec![
            query(1),
            sent.clone(),
            query(2),
            resent(1),
            query(3),
            resent(2),
            applied.clone(),
        ];
        assert!(verdicts(vec![], lawful).is_empty());
        let flagged = |faults: Vec<Fault>, obs: Vec<Obs>| verdicts(faults, obs).len();
        // Re-sending unasked, or twice for one query — unless the network
        // duplicated the query.
        assert_eq!(flagged(vec![], vec![sent.clone(), resent(1)]), 1);
        let twice = vec![sent.clone(), query(1), resent(1), resent(2)];
        assert_eq!(flagged(vec![], twice.clone()), 1);
        assert_eq!(flagged(vec![Fault::Duplicate { permille: 100 }], twice), 0);
        // Asking oneself; asking on after the announced ready was accepted
        // and the gated update went in.
        let own = Obs::ReadyQueried {
            switch: to,
            update,
            from: to,
            attempt: 1,
        };
        assert_eq!(flagged(vec![], vec![own]), 1);
        assert_eq!(flagged(vec![], vec![sent, query(1), applied, query(2)]), 1);
    }
}
