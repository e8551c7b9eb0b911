//! The invariant-oracle registry: every scenario run is judged against the
//! paper's trace properties, reconstructed purely from the observation
//! stream (the oracles never peek at actor internals, so they hold for any
//! implementation of the protocol).

use crate::scenario::{is_rogue_event, Fault, Scenario};
use cicero_core::audit::{audit_flow, ReplayState, WalkOutcome};
use cicero_core::ctrl::barrier_id;
use cicero_core::prelude::*;
use netmodel::linkload::LinkLoad;
use netmodel::routing::route;
use netmodel::topology::Topology;
use simnet::sim::Observation;
use southbound::types::{DomainId, EventId, FlowId, FlowMatch, SwitchId, UpdateId};
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
            if let (WalkOutcome::Delivered(_), path) = state.walk_path(ingress, m) {
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
/// and, when progress is possible, complete. Exactly-once apply and release
/// are rows of the pairing table (see [`rules`]) and report under this
/// oracle's name; what is left here is completeness: in a benign scenario, every crash-recover fault
/// must end with the restarted controller completing its state sync (one
/// `ControllerRecovered` observation per restart). Skipped when a
/// *permanent* crash is also present — it may have taken down the very
/// peer the restarted controller would sync its snapshot from.
fn recovery(s: &Scenario, obs: &[Observation<Obs>], out: &mut Vec<Violation>) {
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

/// **Telemetry** (protocol-flow audit): one pass judges every observation
/// against its row of the pairing table ([`rules`]) — a response follows
/// the stimulus it claims to answer, a subject is stated at most once —
/// and against the one re-send rule: every re-send stream numbers its
/// attempts 1, 2, 3, … with no gap (the one numbering of
/// `controller::pending::{RetryTable, Kept}`). What is not a pairing stays
/// an explicit check below: a flow completed before it arrived, a snapshot
/// that compacts nothing, a rejection with no rogue fault injected, a ready
/// query after the ready was settled, a held update applied below quorum, a
/// release before its dependencies were accepted, and membership phases
/// with a gap.
///
/// The gap-free attempt check is gated like a [`Gate::NoCrash`] row, for
/// switches too: any restart legitimately resets the counters.
fn telemetry(s: &Scenario, obs: &[Observation<Obs>], out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    use Fact::{Accepted, Held, Phase, ReadySent, Released};
    let clean_replay = !s.has_crash() && !s.has_crash_recover();
    let quorum = ((s.controllers_per_domain - 1) / 3 + 1) as usize;
    let injected = |kind: fn(&Fault) -> bool| s.faults.iter().any(kind);
    let no_dup = !injected(|f| matches!(f, Fault::Duplicate { .. }));
    let rogue = injected(|f| matches!(f, Fault::RogueShares { .. }));
    let rogue_ready = injected(|f| matches!(f, Fault::RogueReady { .. }));
    let judged = |gate| match gate {
        Gate::Every => true,
        Gate::NoCrash => clean_replay,
        Gate::NoCrashNoDup => clean_replay && no_dup,
    };

    // Every fact stated so far, with where it was first stated.
    let mut stated: BTreeMap<Fact, usize> = BTreeMap::new();
    // Where each switch last applies an update of each event: past it, the
    // switch holds no parked body of that event that ever goes in.
    let mut last_apply = BTreeMap::new();
    for (i, o) in obs.iter().enumerate() {
        if let Obs::UpdateApplied { switch, update, .. } = o.value {
            last_apply.insert((switch, update.event), i);
        }
    }
    // Highest attempt seen per re-send stream `(kind, sender + key)`; the
    // requests made per cause, and the re-sends per stream answering one.
    let mut last_attempt: BTreeMap<(&'static str, String), u32> = BTreeMap::new();
    let mut requests: BTreeMap<Cause, usize> = BTreeMap::new();
    let mut answers: BTreeMap<String, usize> = BTreeMap::new();
    // NACK-driven resync replies since the stream's last retransmission:
    // each spends one attempt number of its update without announcing it.
    let mut resyncs: BTreeMap<String, u32> = BTreeMap::new();
    let first = UpdateId { event: EventId(0), seq: 0 };

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
        let row = rules(&o.value);
        if judged(row.gate) {
            if let Some(f) = row.follows.filter(|f| !stated.contains_key(f)) {
                violation(out, row.oracle, format!("{:?} with no {f:?} before it", o.value));
            }
            if let Some(f) = row.once.filter(|f| stated.contains_key(f)) {
                violation(out, row.oracle, format!("{:?} states {f:?} a second time", o.value));
            }
        }
        for f in row.states.into_iter().chain(row.once) {
            stated.entry(f).or_insert(i);
        }
        match o.value {
            Obs::FlowCompleted { flow, start } if o.at < start => {
                bad(out, format!("flow {flow:?} completed at {:?}, before its arrival {start:?}", o.at));
            }
            Obs::SnapshotTaken { domain, controller, compacted } if compacted < 1 => {
                let why = "quiescent-point snapshots must compact at least one";
                bad(out, format!("domain {domain:?} controller {controller} compacted nothing ({why})"));
            }
            Obs::UpdateRejected { switch, update } if !rogue => {
                let why = "no rogue-share fault: a legitimate quorum failed validation";
                bad(out, format!("switch {switch:?} rejected {update:?} ({why})"));
            }
            Obs::ReadyRejected { switch, update, from } if !rogue_ready => {
                let why = "no rogue-ready fault: a legitimate neighbor release failed validation";
                bad(out, format!("switch {switch:?} rejected {from:?}'s ready for {update:?} ({why})"));
            }
            Obs::ReadyQueried { switch, update, from, .. } => {
                // Only a neighbor's closed gate under a parked body is asked
                // about: once the releaser announced the ready and the asker
                // then applied its last update of that event, the ready was
                // accepted and nothing of the event is parked any more.
                let announced = stated.get(&ReadySent(from, switch, update));
                let applied = last_apply.get(&(switch, update.event));
                let settled = announced.zip(applied).is_some_and(|(a, l)| a < l && *l < i);
                if switch == from || settled {
                    let what = format!("switch {switch:?} asked {from:?} for the ready of {update:?}");
                    bad(out, format!("{what} with no body parked on it (already accepted: {settled})"));
                }
                *requests.entry(Cause::Ask(from, switch, update)).or_default() += 1;
            }
            Obs::ForwardRetransmitted { event, .. } => {
                *requests.entry(Cause::Reforward(event)).or_default() += 1;
            }
            Obs::ResyncReplied { domain, controller, update } => {
                *resyncs.entry(format!("{domain:?}/{controller} {update:?}")).or_insert(0) += 1;
            }
            // A held update is applied only after releases from a quorum of
            // distinct controllers were sent (unless a controller restarts:
            // its replayed releases are muted).
            Obs::UpdateApplied { switch, update, .. } if !s.has_crash_recover() => {
                let mut holds = stated.range(Held(update, DomainId(0), 0, first)..);
                let held = holds.next().is_some_and(|(f, _)| matches!(*f, Held(u, ..) if u == update));
                let releases = stated.range(Released(update, DomainId(0), 0)..);
                let releases = releases.take_while(|(f, _)| matches!(**f, Released(u, ..) if u == update)).count();
                if held && releases < quorum {
                    let what = format!("switch {switch:?} applied held {update:?} on {releases} release(s)");
                    bad(out, format!("{what}, below the quorum of {quorum}"));
                }
            }
            // A controller releases an update only after it accepted the ack
            // of each of its dependencies — or released the dependency's
            // barrier: the release order, checked independently of the
            // switch's own count.
            Obs::ReleaseSent { domain, controller, update, .. } if clean_replay => {
                let deps: Vec<UpdateId> = stated
                    .range(Held(update, domain, controller, first)..)
                    .map_while(|(f, _)| match *f {
                        Held(u, d, c, dep) if (u, d, c) == (update, domain, controller) => Some(dep),
                        _ => None,
                    })
                    .collect();
                let open = deps.iter().find(|&&d| !stated.contains_key(&Accepted(domain, controller, d)));
                if deps.is_empty() || open.is_some() {
                    let what = format!("domain {domain:?} controller {controller} released {update:?}");
                    let held = !deps.is_empty();
                    bad(out, format!("{what} before accepting its dependency {open:?} (held: {held})"));
                }
            }
            _ => {}
        }
    }
    if clean_replay {
        // Membership phases advance one step at a time; the distinct values
        // a domain's controllers report must form a contiguous run.
        let phases: Vec<(DomainId, u64)> = stated
            .range(Phase(DomainId(0), 0)..)
            .map_while(|(f, _)| match *f {
                Phase(d, p) => Some((d, p)),
                _ => None,
            })
            .collect();
        for w in phases.windows(2) {
            let ((domain, q), (d, p)) = (w[0], w[1]);
            if d == domain && p != q + 1 {
                bad(out, format!("domain {domain:?} skipped membership phases: saw {q} then {p}"));
            }
        }
    }
}

/// A typed fact an observation states, its fields in the order of the
/// observation's (a held update and its releases lead with the update, so
/// that its facts sort together). A controller is `(domain, index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Fact {
    Completed(FlowId),
    Denied(FlowId),
    Applied(SwitchId, UpdateId),
    Processed(DomainId, EventId),
    Delivered(DomainId, u32, EventId),
    Exhausted(DomainId, u32, UpdateId),
    EventExhausted(SwitchId, EventId),
    Nacked(UpdateId),
    /// Some controller reported segment `.1` of `.0` done.
    Reported(EventId, u32),
    ReportedBy(DomainId, u32, EventId, u32),
    /// The controller accepted an update's ack, or released a barrier
    /// ([`barrier_id`]).
    Accepted(DomainId, u32, UpdateId),
    ReadySent(SwitchId, SwitchId, UpdateId),
    /// Controller `.1/.2` holds `.0` until it accepted dependency `.3`.
    Held(UpdateId, DomainId, u32, UpdateId),
    /// Controller `.1/.2` released held update `.0`.
    Released(UpdateId, DomainId, u32),
    Phase(DomainId, u64),
}

/// The runs a row is judged on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Gate {
    /// Every run. A restarted switch replays its WAL with nothing muted (a
    /// recovered release is re-sent only when asked for; pending events and
    /// ready queries die with the first life), so its rows are judged here.
    Every,
    /// Runs with no crash fault. WAL replay re-drives a restarted
    /// controller's delivery state machines with observations muted, so its
    /// "first send" can be invisible while its later re-send is not.
    NoCrash,
    /// Runs with no crash and no `Fault::Duplicate`, which can legitimately
    /// double-fire a flow's resolution.
    NoCrashNoDup,
}

/// One observation's row of the pairing table.
struct Row {
    /// The fact it states for later rows to follow.
    states: Option<Fact>,
    /// The one fact it must follow: the stimulus it claims to answer.
    follows: Option<Fact>,
    /// The one subject it may state only once (stated like `states`).
    once: Option<Fact>,
    gate: Gate,
    /// The oracle a broken row reports under.
    oracle: &'static str,
}

const ROW: Row = Row {
    states: None,
    follows: None,
    once: None,
    gate: Gate::Every,
    oracle: "telemetry",
};

/// The pairing table. The match names every `Obs` variant and must stay
/// exhaustive (no catch-all arm): a new observation fails to compile here
/// until it has a row, even an empty one.
fn rules(o: &Obs) -> Row {
    use Fact::*;
    use Gate::*;
    match *o {
        Obs::FlowCompleted { flow, .. } => Row { once: Some(Completed(flow)), gate: NoCrashNoDup, ..ROW },
        Obs::FlowDenied { flow } => Row { once: Some(Denied(flow)), gate: NoCrashNoDup, ..ROW },
        // Exactly-once apply: retries and WAL replay must be absorbed by
        // the switch's dedup, under any fault plan.
        Obs::UpdateApplied { switch, update, .. } => {
            Row { once: Some(Applied(switch, update)), oracle: "recovery", ..ROW }
        }
        Obs::EventProcessed { domain, event } => Row { once: Some(Processed(domain, event)), gate: NoCrash, ..ROW },
        Obs::EventDelivered { domain, controller, event } => {
            Row { states: Some(Delivered(domain, controller, event)), ..ROW }
        }
        Obs::UpdateRetryExhausted { domain, controller, update } => {
            Row { once: Some(Exhausted(domain, controller, update)), gate: NoCrash, ..ROW }
        }
        Obs::AckRetransmitted { switch, update } => Row { follows: Some(Applied(switch, update)), ..ROW },
        Obs::EventRetryExhausted { switch, event } => Row { once: Some(EventExhausted(switch, event)), ..ROW },
        Obs::NackSent { update, .. } => Row { states: Some(Nacked(update)), ..ROW },
        Obs::ResyncReplied { update, .. } => Row { follows: Some(Nacked(update)), ..ROW },
        Obs::SegmentReported { domain, controller, event, segment } => Row {
            states: Some(Reported(event, segment)),
            once: Some(ReportedBy(domain, controller, event, segment)),
            gate: NoCrash,
            ..ROW
        },
        Obs::SegmentRetransmitted { domain, controller, event, segment, .. } => {
            Row { follows: Some(ReportedBy(domain, controller, event, segment)), gate: NoCrash, ..ROW }
        }
        Obs::BoundaryReleased { domain, controller, event, segment } => Row {
            follows: Some(Reported(event, segment)),
            once: Some(Accepted(domain, controller, barrier_id(event, segment))),
            gate: NoCrash,
            ..ROW
        },
        // Only a schedule waiting on another domain re-forwards: the sender
        // delivered the event (simcheck traces every delivery).
        Obs::ForwardRetransmitted { domain, controller, event, .. } => {
            Row { follows: Some(Delivered(domain, controller, event)), gate: NoCrash, ..ROW }
        }
        // Exactly-once release (Segway): re-delivered metadata and retries
        // must be absorbed by the release dedup; a bare re-send of an
        // announced ready is its own observation.
        Obs::ReadySent { from, to, update } => Row { once: Some(ReadySent(from, to, update)), oracle: "recovery", ..ROW },
        Obs::ReadyRetransmitted { from, to, update, .. } => Row { follows: Some(ReadySent(from, to, update)), ..ROW },
        Obs::UpdateHeld { domain, controller, update, dep } => {
            Row { states: Some(Held(update, domain, controller, dep)), ..ROW }
        }
        Obs::AckAccepted { domain, controller, update } => Row { states: Some(Accepted(domain, controller, update)), ..ROW },
        Obs::ReleaseSent { domain, controller, update, .. } => Row { states: Some(Released(update, domain, controller)), ..ROW },
        Obs::PhaseChanged { domain, phase } => Row { states: Some(Phase(domain, phase)), ..ROW },
        // Judged by the explicit checks or the re-send rule alone.
        Obs::UpdateRejected { .. }
        | Obs::SnapshotTaken { .. }
        | Obs::ReadyQueried { .. }
        | Obs::ReadyRejected { .. }
        | Obs::UpdateRetransmitted { .. }
        | Obs::EventRetransmitted { .. }
        | Obs::ControllerRecovered { .. } => ROW,
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

    const D: (DomainId, DomainId) = (DomainId(0), DomainId(1));
    const E: EventId = EventId(7);

    fn applied(switch: SwitchId, update: UpdateId) -> Obs {
        let m = FlowMatch {
            src: HostId(0),
            dst: HostId(1),
        };
        let kind = UpdateKind::Remove(m);
        Obs::UpdateApplied { switch, update, kind, signers: 2 }
    }

    /// Every row of the pairing table broken once, each case a lawful trace
    /// and the same trace broken: a response without its stimulus, or a
    /// subject stated twice. Exactly the row fires, under its oracle, on
    /// every run its gate judges, and stays silent on the others: a
    /// crash-recover fault mutes all but `Every` rows, `Fault::Duplicate`
    /// the `NoCrashNoDup` ones.
    #[test]
    fn every_row_fires_once_where_its_gate_judges_and_nowhere_else() {
        let (up, down) = D;
        let update = UpdateId { event: E, seq: 2 };
        let (from, to, flow) = (SwitchId(3), SwitchId(1), FlowId(4));
        let delivered = Obs::EventDelivered { domain: up, controller: 2, event: E };
        let reported = Obs::SegmentReported { domain: down, controller: 3, event: E, segment: 1 };
        let released = Obs::BoundaryReleased { domain: up, controller: 2, event: E, segment: 1 };
        let ready = Obs::ReadySent { from, to, update };
        // A response follows its stimulus, after whatever it presupposes.
        let follows = |gate, before: &[Obs], stimulus: &Obs, response: Obs| {
            let lawful = [before, &[stimulus.clone(), response.clone()]].concat();
            (gate, "telemetry", lawful, [before, &[response]].concat())
        };
        // A subject is stated once, after whatever it presupposes.
        let once = |gate, oracle, before: &[Obs], x: Obs| {
            let lawful = [before, std::slice::from_ref(&x)].concat();
            (gate, oracle, lawful, [before, &[x.clone(), x]].concat())
        };
        let query = Obs::ReadyQueried { switch: to, update, from, attempt: 1 };
        let reforward = Obs::ForwardRetransmitted { domain: up, controller: 2, event: E, attempt: 1 };
        let cases = [
            follows(Gate::Every, &[], &applied(from, update), Obs::AckRetransmitted { switch: from, update }),
            follows(
                Gate::Every,
                &[],
                &Obs::NackSent { switch: from, update, have: 1 },
                Obs::ResyncReplied { domain: up, controller: 1, update },
            ),
            follows(
                Gate::NoCrash,
                &[delivered.clone(), reforward.clone()],
                &reported,
                Obs::SegmentRetransmitted { domain: down, controller: 3, event: E, segment: 1, attempt: 1 },
            ),
            follows(Gate::NoCrash, &[], &reported, released.clone()),
            follows(Gate::NoCrash, &[], &delivered, reforward),
            follows(Gate::Every, &[query], &ready, Obs::ReadyRetransmitted { from, to, update, attempt: 1 }),
            once(Gate::NoCrashNoDup, "telemetry", &[], Obs::FlowCompleted { flow, start: SimTime::ZERO }),
            once(Gate::NoCrashNoDup, "telemetry", &[], Obs::FlowDenied { flow }),
            once(Gate::Every, "recovery", &[], applied(from, update)),
            once(Gate::NoCrash, "telemetry", &[], Obs::EventProcessed { domain: up, event: E }),
            once(Gate::NoCrash, "telemetry", &[], Obs::UpdateRetryExhausted { domain: up, controller: 1, update }),
            once(Gate::Every, "telemetry", &[], Obs::EventRetryExhausted { switch: from, event: E }),
            once(Gate::NoCrash, "telemetry", &[], reported.clone()),
            once(Gate::NoCrash, "telemetry", &[reported], released),
            once(Gate::Every, "recovery", &[], ready),
        ];
        let restart = Fault::CrashRecoverSwitch {
            switch: 0,
            at_ms: 10,
            after_ms: 10,
        };
        let duplicate = Fault::Duplicate { permille: 100 };
        for (gate, oracle, lawful, broken) in cases {
            let last = broken.last().cloned();
            assert_eq!(verdicts(vec![], lawful), vec![], "{last:?}");
            let v = verdicts(vec![], broken.clone());
            assert_eq!(v.len(), 1, "{last:?} must be flagged once: {v:?}");
            assert_eq!(v[0].oracle, oracle, "{last:?}");
            let judged = |faults| verdicts(faults, broken.clone()).len();
            assert_eq!(judged(vec![restart]), usize::from(gate == Gate::Every), "{last:?}");
            assert_eq!(judged(vec![duplicate]), usize::from(gate != Gate::NoCrashNoDup), "{last:?}");
        }
    }

    /// A held update goes in on releases from a quorum of distinct
    /// controllers, each sent after its sender accepted the ack of every
    /// dependency, or released the dependency's barrier.
    #[test]
    fn a_held_update_applies_on_a_quorum_of_releases_each_after_its_dependencies() {
        let (d, switch) = (D.0, SwitchId(3));
        let quorum = (Scenario::generate(0).controllers_per_domain - 1) / 3 + 1;
        let (update, dep) = (UpdateId { event: E, seq: 2 }, UpdateId { event: E, seq: 1 });
        let barrier = barrier_id(EventId(5), 1);
        let release = |c| Obs::ReleaseSent { domain: d, controller: c, update, switch };
        let mut lawful = Vec::new();
        for c in 1..=quorum {
            let held = |dep| Obs::UpdateHeld { domain: d, controller: c, update, dep };
            let unblock = Obs::BoundaryReleased { domain: d, controller: c, event: EventId(5), segment: 1 };
            let segment = Obs::SegmentReported { domain: D.1, controller: c, event: EventId(5), segment: 1 };
            let accepted = Obs::AckAccepted { domain: d, controller: c, update: dep };
            lawful.extend([held(dep), held(barrier), segment, unblock, accepted, release(c)]);
        }
        lawful.push(applied(switch, update));
        assert_eq!(verdicts(vec![], lawful.clone()), vec![]);
        let without = |drop: &dyn Fn(&Obs) -> bool| {
            let trace: Vec<Obs> = lawful.iter().filter(|o| !drop(o)).cloned().collect();
            verdicts(vec![], trace).len()
        };
        // One release short of the quorum; a release before an ack, and
        // before a barrier; a release of an update its sender never held.
        assert_eq!(without(&|o| *o == release(1)), 1);
        assert_eq!(without(&|o| matches!(o, Obs::AckAccepted { controller: 1, .. })), 1);
        assert_eq!(without(&|o| matches!(o, Obs::BoundaryReleased { controller: 1, .. })), 1);
        assert_eq!(without(&|o| matches!(o, Obs::UpdateHeld { controller: 1, .. })), 1);
    }
}
