//! Observations emitted by the protocol actors and the metric reductions
//! the experiment figures are built from.

use simnet::sim::Observation;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{DomainId, EventId, FlowId, SwitchId, UpdateId};

/// Everything the harness can observe about a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Obs {
    /// A flow finished transmitting; its completion latency is
    /// `at - start` (observation timestamp minus arrival).
    FlowCompleted {
        /// The flow.
        flow: FlowId,
        /// Its arrival time.
        start: SimTime,
    },
    /// A flow was denied by a firewall rule.
    FlowDenied {
        /// The flow.
        flow: FlowId,
    },
    /// A switch applied a validated update.
    UpdateApplied {
        /// The switch.
        switch: SwitchId,
        /// The update.
        update: UpdateId,
        /// What it changed (lets auditors replay data-plane states).
        kind: southbound::types::UpdateKind,
        /// Distinct signature shares backing the apply: the bucket size at
        /// quorum (switch aggregation), the phase quorum proven by a
        /// verified aggregate (controller aggregation), or 1 for the
        /// unauthenticated baselines. Security auditors reconstruct the
        /// quorum evidence from this without trusting the switch logic.
        signers: u32,
    },
    /// A switch rejected an update (bad/missing quorum or signature) —
    /// the security property at work.
    UpdateRejected {
        /// The switch.
        switch: SwitchId,
        /// The update.
        update: UpdateId,
    },
    /// A domain's control plane processed (delivered) an event. Emitted
    /// once per domain (by its lowest-id controller), so counting these
    /// per domain yields the paper's Fig. 12b series.
    EventProcessed {
        /// The processing domain.
        domain: DomainId,
        /// The event.
        event: EventId,
    },
    /// A controller delivered (totally-ordered) an event — emitted by every
    /// controller for every event, for event-linearizability checking
    /// (paper §4.4, [`check_event_linearizability`]).
    EventDelivered {
        /// The domain.
        domain: DomainId,
        /// The delivering controller (1-based id).
        controller: u32,
        /// The event.
        event: EventId,
    },
    /// A membership phase change completed at a controller (resharing
    /// finished, queued events drained).
    PhaseChanged {
        /// The domain.
        domain: DomainId,
        /// The new phase value.
        phase: u64,
    },
    /// A controller retransmitted an unacknowledged update (reliable
    /// delivery layer; `attempt` is 1-based over retransmissions).
    UpdateRetransmitted {
        /// The domain.
        domain: DomainId,
        /// The retransmitting controller (1-based id).
        controller: u32,
        /// The update.
        update: UpdateId,
        /// Which retransmission this is.
        attempt: u32,
    },
    /// A controller exhausted an update's retry budget: the update (and any
    /// dependents abandoned with it) is reported failed instead of stalling
    /// the dependency graph silently.
    UpdateRetryExhausted {
        /// The domain.
        domain: DomainId,
        /// The reporting controller.
        controller: u32,
        /// The failed update.
        update: UpdateId,
    },
    /// A switch re-sent an acknowledgement after seeing a duplicate of an
    /// already-applied update (ack-loss recovery).
    AckRetransmitted {
        /// The switch.
        switch: SwitchId,
        /// The re-acknowledged update.
        update: UpdateId,
    },
    /// A switch retransmitted an event that has not produced a rule
    /// yet (event-loss recovery).
    EventRetransmitted {
        /// The switch.
        switch: SwitchId,
        /// The event.
        event: EventId,
        /// Which retransmission this is (1-based).
        attempt: u32,
    },
    /// A switch exhausted an event's retry budget and gave up re-raising it.
    EventRetryExhausted {
        /// The switch.
        switch: SwitchId,
        /// The abandoned event.
        event: EventId,
    },
    /// A switch NACKed a below-quorum update bucket, requesting the missing
    /// signature shares (state re-sync request).
    NackSent {
        /// The switch.
        switch: SwitchId,
        /// The stuck update.
        update: UpdateId,
        /// Shares held when the NACK was sent.
        have: u32,
    },
    /// A controller answered a NACK by re-sending the requested signed
    /// update (from flight or from its acknowledged archive).
    ResyncReplied {
        /// The domain.
        domain: DomainId,
        /// The answering controller.
        controller: u32,
        /// The re-sent update.
        update: UpdateId,
    },
    /// A downstream controller reported its domain's segment of an event
    /// fully applied to the upstream domain(s) — the one unsolicited send
    /// of the cross-domain ordering handshake.
    SegmentReported {
        /// The reporting (downstream) domain.
        domain: DomainId,
        /// The reporting controller.
        controller: u32,
        /// The event.
        event: EventId,
        /// The applied segment's index in the event's full update list.
        segment: u32,
    },
    /// A downstream controller re-sent its kept `SegmentApplied` report to
    /// an upstream controller that re-forwarded it the event.
    SegmentRetransmitted {
        /// The retransmitting domain.
        domain: DomainId,
        /// The retransmitting controller.
        controller: u32,
        /// The event.
        event: EventId,
        /// The segment index.
        segment: u32,
        /// Which re-send of this share this is (1-based).
        attempt: u32,
    },
    /// An upstream controller collected a downstream quorum of
    /// `SegmentApplied` reports and released the updates held on the
    /// boundary barrier.
    BoundaryReleased {
        /// The releasing (upstream) domain.
        domain: DomainId,
        /// The releasing controller.
        controller: u32,
        /// The event.
        event: EventId,
        /// The downstream segment whose quorum completed.
        segment: u32,
    },
    /// A restarted controller finished crash recovery: WAL + snapshot
    /// replayed, missing deliveries state-synced from a peer, consensus
    /// rejoined.
    ControllerRecovered {
        /// The domain.
        domain: DomainId,
        /// The recovered controller (1-based id).
        controller: u32,
        /// The peer that answered the snapshot transfer.
        peer: u32,
        /// The delivery frontier after catch-up.
        frontier: u64,
    },
    /// A controller compacted its WAL into an atomic snapshot at a
    /// quiescent point.
    SnapshotTaken {
        /// The domain.
        domain: DomainId,
        /// The snapshotting controller (1-based id).
        controller: u32,
        /// WAL records compacted away.
        compacted: u64,
    },
    /// A Segway switch released a neighbor: it applied a gating update and
    /// sent the neighbor a tagged ready message. Emitted exactly once per
    /// `(from, update, to)` — the exactly-once-release invariant the
    /// telemetry oracle audits (duplicated quorum deliveries and restarts
    /// must not re-release an already-released neighbor).
    ReadySent {
        /// The releasing switch.
        from: SwitchId,
        /// The released switch.
        to: SwitchId,
        /// The gating update the sender applied.
        update: UpdateId,
    },
    /// A Segway switch holding a parked body asked the switch of a still
    /// closed gate for its ready again (ready-loss recovery, receiver-driven).
    ReadyQueried {
        /// The asking switch.
        switch: SwitchId,
        /// The gating update.
        update: UpdateId,
        /// The gate's designated releaser, who is asked.
        from: SwitchId,
        /// Which query of this gate this is (1-based).
        attempt: u32,
    },
    /// A Segway switch re-sent its kept ready to the released switch that
    /// asked for it.
    ReadyRetransmitted {
        /// The retransmitting switch.
        from: SwitchId,
        /// The target switch.
        to: SwitchId,
        /// The gating update.
        update: UpdateId,
        /// Which re-send of this ready this is (1-based).
        attempt: u32,
    },
    /// A Segway switch rejected a ready message: a bad tag, a `to`
    /// field naming a different switch (replay at the wrong victim), or a
    /// sender that is not the gate's designated switch — the Segway
    /// analogue of [`Obs::UpdateRejected`].
    ReadyRejected {
        /// The rejecting switch.
        switch: SwitchId,
        /// The gating update the message claimed.
        update: UpdateId,
        /// The claimed sender.
        from: SwitchId,
    },
    /// A controller admitted a held update (Cicero): `update` waits on
    /// `dep` — an own update, or a cross-domain barrier. One observation per
    /// dependency; the telemetry oracle checks each release against them.
    UpdateHeld {
        /// The domain.
        domain: DomainId,
        /// The admitting controller.
        controller: u32,
        /// The held update.
        update: UpdateId,
        /// One of its dependencies.
        dep: UpdateId,
    },
    /// A controller accepted the first verified acknowledgement of `update`
    /// (Cicero), live or as an early ack honoured at admission.
    AckAccepted {
        /// The domain.
        domain: DomainId,
        /// The accepting controller.
        controller: u32,
        /// The acknowledged update.
        update: UpdateId,
    },
    /// A controller released held `update` to its switch with a tagged
    /// release: every dependency is acknowledged here. Emitted when the
    /// release is tagged (once per phase); re-sends with the kept share are
    /// the update's retransmissions.
    ReleaseSent {
        /// The domain.
        domain: DomainId,
        /// The releasing controller.
        controller: u32,
        /// The held update.
        update: UpdateId,
        /// Its switch.
        switch: SwitchId,
    },
    /// A controller whose schedule for an event still waits on other
    /// domains re-sent its kept forward of the event to every member of
    /// them: a domain that never heard of the event delivers it, one that
    /// did answers with the segment reports it kept (cross-domain loss
    /// recovery, receiver-driven; Cicero and Segway alike).
    ForwardRetransmitted {
        /// The re-forwarding (upstream) domain.
        domain: DomainId,
        /// The re-forwarding controller.
        controller: u32,
        /// The re-forwarded event.
        event: EventId,
        /// Which re-send of this controller's forward of the event this is
        /// (1-based).
        attempt: u32,
    },
}

/// Aggregate counters over the reliable-delivery observations of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetransmitStats {
    /// Controller → switch update retransmissions.
    pub update_retransmits: u64,
    /// Updates reported failed after budget exhaustion.
    pub updates_exhausted: u64,
    /// Switch ack re-sends (ack-loss recovery).
    pub ack_retransmits: u64,
    /// Switch event retransmissions.
    pub event_retransmits: u64,
    /// Events abandoned after budget exhaustion.
    pub events_exhausted: u64,
    /// NACKs (state re-sync requests) sent by switches.
    pub nacks: u64,
    /// NACKs answered by controllers with a re-sent update.
    pub resyncs: u64,
    /// Cross-domain `SegmentApplied` reports re-sent to a re-forwarder.
    pub segment_retransmits: u64,
    /// Cross-domain event re-forwards by controllers still waiting.
    pub forward_retransmits: u64,
    /// Segway switch-to-switch readies re-sent on request.
    pub ready_retransmits: u64,
}

impl RetransmitStats {
    /// Total recovery actions taken (any retransmission, NACK or re-sync).
    pub fn total_recoveries(&self) -> u64 {
        self.update_retransmits
            + self.ack_retransmits
            + self.event_retransmits
            + self.nacks
            + self.resyncs
            + self.segment_retransmits
            + self.forward_retransmits
            + self.ready_retransmits
    }
}

/// Reduces a run's observations to its [`RetransmitStats`].
pub fn retransmit_stats(obs: &[Observation<Obs>]) -> RetransmitStats {
    let mut s = RetransmitStats::default();
    for o in obs {
        match o.value {
            Obs::UpdateRetransmitted { .. } => s.update_retransmits += 1,
            Obs::UpdateRetryExhausted { .. } => s.updates_exhausted += 1,
            Obs::AckRetransmitted { .. } => s.ack_retransmits += 1,
            Obs::EventRetransmitted { .. } => s.event_retransmits += 1,
            Obs::EventRetryExhausted { .. } => s.events_exhausted += 1,
            Obs::NackSent { .. } => s.nacks += 1,
            Obs::ResyncReplied { .. } => s.resyncs += 1,
            Obs::SegmentRetransmitted { .. } => s.segment_retransmits += 1,
            Obs::ForwardRetransmitted { .. } => s.forward_retransmits += 1,
            Obs::ReadyRetransmitted { .. } => s.ready_retransmits += 1,
            _ => {}
        }
    }
    s
}

/// Flows that completed or were denied — a run is done with a flow either
/// way.
pub fn resolved_flows(obs: &[Observation<Obs>]) -> usize {
    obs.iter()
        .filter(|o| matches!(o.value, Obs::FlowCompleted { .. } | Obs::FlowDenied { .. }))
        .count()
}

/// Flow-completion latencies extracted from a run's observations.
pub fn flow_latencies(obs: &[Observation<Obs>]) -> Vec<SimDuration> {
    let mut out: Vec<SimDuration> = obs
        .iter()
        .filter_map(|o| match o.value {
            Obs::FlowCompleted { start, .. } => Some(o.at.since(start)),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

/// Events processed per domain (for the event-locality figure).
pub fn events_per_domain(obs: &[Observation<Obs>]) -> std::collections::BTreeMap<DomainId, usize> {
    let mut map = std::collections::BTreeMap::new();
    for o in obs {
        if let Obs::EventProcessed { domain, .. } = o.value {
            *map.entry(domain).or_insert(0) += 1;
        }
    }
    map
}

/// Per-controller delivery sequences, keyed by `(domain, controller)` —
/// the input to the event-linearizability check.
pub fn delivery_sequences(
    obs: &[Observation<Obs>],
) -> std::collections::BTreeMap<(DomainId, u32), Vec<EventId>> {
    let mut map: std::collections::BTreeMap<(DomainId, u32), Vec<EventId>> =
        std::collections::BTreeMap::new();
    for o in obs {
        if let Obs::EventDelivered {
            domain,
            controller,
            event,
        } = o.value
        {
            map.entry((domain, controller)).or_default().push(event);
        }
    }
    map
}

/// Checks event-linearizability (paper §4.4): within each domain, every
/// controller must have delivered a *prefix-consistent* sequence of events
/// (slower controllers may be behind, but never diverge).
///
/// A controller that recovered via state sync absorbed its missed
/// deliveries silently (muted replay emits no `EventDelivered`), so its
/// observed sequence legitimately has gaps. Controllers with a
/// `ControllerRecovered` observation are therefore only required to
/// deliver an *ordered subsequence* of their domain's longest sequence —
/// reordered or fabricated deliveries still fail — while every other
/// controller keeps the strict prefix requirement. Without restarts this
/// is exactly the strict check.
///
/// The `(domain, controller)` pairs in `amnesiac` came back on a *wiped
/// disk*. Such a controller is a replacement machine: it may deliver again what
/// its previous life already had (it delivered alone, crashed, and the
/// peer it synced from was still behind). Its deliveries are split into
/// lives at its own `ControllerRecovered` observations and each life is
/// judged as a restarted controller of its own. Nobody else is exempted: a
/// controller that restarted with its disk intact is still held to *one*
/// ordered subsequence across the restart — no duplicate, no reordering.
pub fn check_event_linearizability(
    obs: &[Observation<Obs>],
    amnesiac: &std::collections::BTreeSet<(DomainId, u32)>,
) -> Result<(), String> {
    let mut restarted = std::collections::BTreeSet::new();
    // Current life per amnesiac controller; everyone else stays in life 0.
    let mut life: std::collections::BTreeMap<(DomainId, u32), u32> =
        std::collections::BTreeMap::new();
    let mut seqs: std::collections::BTreeMap<(DomainId, u32, u32), Vec<EventId>> =
        std::collections::BTreeMap::new();
    for o in obs {
        match o.value {
            Obs::ControllerRecovered {
                domain, controller, ..
            } => {
                restarted.insert((domain, controller));
                if amnesiac.contains(&(domain, controller)) {
                    *life.entry((domain, controller)).or_default() += 1;
                }
            }
            Obs::EventDelivered {
                domain,
                controller,
                event,
            } => {
                let l = life.get(&(domain, controller)).copied().unwrap_or(0);
                seqs.entry((domain, controller, l)).or_default().push(event);
            }
            _ => {}
        }
    }
    let mut by_domain: std::collections::BTreeMap<DomainId, Vec<(u32, &Vec<EventId>)>> =
        std::collections::BTreeMap::new();
    for (key, seq) in &seqs {
        by_domain.entry(key.0).or_default().push((key.1, seq));
    }
    for (d, seqs) in by_domain {
        let longest = seqs.iter().map(|(_, s)| *s).max_by_key(|s| s.len()).expect("non-empty");
        for (c, s) in &seqs {
            if restarted.contains(&(d, *c)) {
                if !is_subsequence(s, longest) {
                    return Err(format!(
                        "domain {d:?}: restarted controller {c} delivered {s:?}, not an \
                         ordered subsequence of {longest:?}"
                    ));
                }
            } else if longest[..s.len()] != s[..] {
                return Err(format!(
                    "domain {d:?}: controller sequences diverge: {s:?} is not a prefix of {longest:?}"
                ));
            }
        }
    }
    Ok(())
}

/// `true` iff `needle` appears in `hay` in order (not necessarily
/// contiguously).
fn is_subsequence(needle: &[EventId], hay: &[EventId]) -> bool {
    let mut it = hay.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Number of *distinct* events processed anywhere (multi-domain events count
/// once). The per-domain share of Fig. 12b is `events_per_domain / this`.
pub fn unique_events(obs: &[Observation<Obs>]) -> usize {
    let mut seen = std::collections::BTreeSet::new();
    for o in obs {
        if let Obs::EventProcessed { event, .. } = o.value {
            seen.insert(event);
        }
    }
    seen.len()
}

/// An empirical CDF over latencies, for the paper's CDF figures.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    sorted_ms: Vec<f64>,
}

impl Cdf {
    /// Builds from a latency sample.
    pub fn from_latencies(latencies: &[SimDuration]) -> Self {
        let mut sorted_ms: Vec<f64> = latencies.iter().map(|d| d.as_millis_f64()).collect();
        sorted_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        Cdf { sorted_ms }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.sorted_ms.is_empty()
    }

    /// The `q`-quantile in milliseconds (`q` in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics on an empty CDF or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        assert!(!self.is_empty(), "empty CDF");
        let idx = ((self.sorted_ms.len() - 1) as f64 * q).round() as usize;
        self.sorted_ms[idx]
    }

    /// The mean in milliseconds.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sorted_ms.iter().sum::<f64>() / self.sorted_ms.len() as f64
    }

    /// Fraction of samples `<= x_ms` (the CDF evaluated at `x_ms`).
    pub fn at(&self, x_ms: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let n = self.sorted_ms.partition_point(|&v| v <= x_ms);
        n as f64 / self.sorted_ms.len() as f64
    }

    /// `(x_ms, F(x))` points suitable for plotting/printing.
    pub fn points(&self, resolution: usize) -> Vec<(f64, f64)> {
        if self.is_empty() || resolution == 0 {
            return Vec::new();
        }
        (0..=resolution)
            .map(|i| {
                let q = i as f64 / resolution as f64;
                (self.quantile(q), q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::node::NodeId;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn cdf_quantiles() {
        let lats: Vec<SimDuration> = (1..=100).map(ms).collect();
        let cdf = Cdf::from_latencies(&lats);
        assert_eq!(cdf.len(), 100);
        assert!((cdf.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((cdf.quantile(1.0) - 100.0).abs() < 1e-9);
        assert!((cdf.quantile(0.5) - 50.0).abs() < 2.0);
        assert!((cdf.mean() - 50.5).abs() < 1e-9);
        assert!((cdf.at(25.0) - 0.25).abs() < 0.01);
        assert_eq!(cdf.at(0.0), 0.0);
        assert_eq!(cdf.at(1000.0), 1.0);
    }

    #[test]
    fn latency_extraction() {
        let obs = vec![
            Observation {
                at: SimTime::from_nanos(5_000_000),
                node: NodeId(1),
                value: Obs::FlowCompleted {
                    flow: FlowId(1),
                    start: SimTime::from_nanos(1_000_000),
                },
            },
            Observation {
                at: SimTime::from_nanos(9_000_000),
                node: NodeId(1),
                value: Obs::FlowDenied { flow: FlowId(2) },
            },
        ];
        let lats = flow_latencies(&obs);
        assert_eq!(lats, vec![SimDuration::from_millis(4)]);
    }

    #[test]
    fn domain_event_counting() {
        let mk = |d: u16, e: u64| Observation {
            at: SimTime::ZERO,
            node: NodeId(0),
            value: Obs::EventProcessed {
                domain: DomainId(d),
                event: EventId(e),
            },
        };
        let obs = vec![mk(0, 1), mk(0, 2), mk(1, 2)];
        let counts = events_per_domain(&obs);
        assert_eq!(counts[&DomainId(0)], 2);
        assert_eq!(counts[&DomainId(1)], 1);
    }
    /// A delivery trace: `Ok((c, e))` is controller `c` of domain 0
    /// delivering event `e`, `Err(c)` is `c` completing a recovery.
    fn trace(steps: &[Result<(u32, u64), u32>]) -> Vec<Observation<Obs>> {
        let domain = DomainId(0);
        steps
            .iter()
            .map(|s| Observation {
                at: SimTime::ZERO,
                node: NodeId(0),
                value: match *s {
                    Ok((controller, e)) => Obs::EventDelivered {
                        domain,
                        controller,
                        event: EventId(e),
                    },
                    Err(controller) => Obs::ControllerRecovered {
                        domain,
                        controller,
                        peer: 1,
                        frontier: 0,
                    },
                },
            })
            .collect()
    }

    /// Without a restart the check is the strict prefix check: a gap fails,
    /// and the same gap after a state-sync recovery passes.
    #[test]
    fn a_gap_passes_only_after_a_recovery() {
        let none = Default::default();
        let gap = trace(&[Ok((1, 1)), Ok((1, 2)), Ok((1, 3)), Ok((3, 1)), Ok((3, 3))]);
        assert!(check_event_linearizability(&gap, &none).is_err());
        let synced = trace(&[Ok((1, 1)), Ok((1, 2)), Ok((1, 3)), Ok((3, 1)), Err(3), Ok((3, 3))]);
        assert!(check_event_linearizability(&synced, &none).is_ok());
    }

    /// Controller 3 delivers 1 alone, restarts, and delivers 1 again with
    /// the group: legitimate only for a wiped-disk replacement.
    #[test]
    fn only_a_wiped_disk_restart_may_deliver_again() {
        let redelivery = trace(&[
            Ok((3, 1)),
            Err(3),
            Ok((1, 1)),
            Ok((3, 1)),
            Ok((1, 2)),
            Ok((3, 2)),
        ]);
        let amnesiac = |c: u32| [(DomainId(0), c)].into_iter().collect();
        assert!(check_event_linearizability(&redelivery, &amnesiac(3)).is_ok());
        // Disk kept (or someone else's disk lost): the duplicate fails.
        assert!(check_event_linearizability(&redelivery, &amnesiac(1)).is_err());
        assert!(check_event_linearizability(&redelivery, &Default::default()).is_err());
    }

    #[test]
    fn amnesia_exempts_neither_reordering_nor_fabrication() {
        let set: std::collections::BTreeSet<_> = [(DomainId(0), 3)].into_iter().collect();
        // Reordered within the second life.
        let reordered = trace(&[
            Ok((1, 1)),
            Ok((1, 2)),
            Ok((3, 1)),
            Err(3),
            Ok((3, 2)),
            Ok((3, 1)),
        ]);
        assert!(check_event_linearizability(&reordered, &set).is_err());
        // An event nobody else delivered, in the second life.
        let fabricated = trace(&[Ok((1, 1)), Ok((1, 2)), Ok((3, 1)), Err(3), Ok((3, 9))]);
        assert!(check_event_linearizability(&fabricated, &set).is_err());
        // A disk-kept restart is still one ordered sequence across lives:
        // [1, 3] then [2] is out of order as a whole.
        let cross_life = trace(&[
            Ok((1, 1)),
            Ok((1, 2)),
            Ok((1, 3)),
            Ok((3, 1)),
            Ok((3, 3)),
            Err(3),
            Ok((3, 2)),
        ]);
        assert!(check_event_linearizability(&cross_life, &Default::default()).is_err());
    }
}
