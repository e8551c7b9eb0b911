//! The protocol message alphabet exchanged by simulated nodes, and the
//! consensus payload type.

use bft::message::{BftMessage, BftPayload, Digest};
use blscrypto::reshare::ReshareDealing;
use blscrypto::sha256::sha256_parts;
use simnet::time::{SimDuration, SimTime};
use southbound::codec::{DecodeError, Wire};
use southbound::envelope::{QuorumSigned, ShareSigned, Signed};
use southbound::types::{
    ControllerId, DomainId, Event, EventId, FlowId, HostId, NetworkUpdate, Phase, SwitchId,
    UpdateId,
};

/// An acknowledgement body: switch `switch` applied update `update`
/// (paper §4.1 — verified acks drain dependency sets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AckBody {
    /// The applied update.
    pub update: UpdateId,
    /// The acknowledging switch.
    pub switch: SwitchId,
}

impl Wire for AckBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.update.encode(buf);
        self.switch.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(AckBody {
            update: UpdateId::decode(buf)?,
            switch: SwitchId::decode(buf)?,
        })
    }
}

/// A negative acknowledgement / state re-sync request: switch `switch`
/// holds a below-quorum share bucket for `update` and asks the control
/// plane to retransmit the missing signed shares (e.g. after loss or a
/// healed partition). `have` is how many distinct shares the switch holds,
/// so controllers can prioritize nearly-complete buckets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NackBody {
    /// The update the switch cannot yet apply.
    pub update: UpdateId,
    /// The requesting switch.
    pub switch: SwitchId,
    /// Distinct signature shares held so far.
    pub have: u32,
}

impl Wire for NackBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.update.encode(buf);
        self.switch.encode(buf);
        self.have.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(NackBody {
            update: UpdateId::decode(buf)?,
            switch: SwitchId::decode(buf)?,
            have: u32::decode(buf)?,
        })
    }
}

/// A cross-domain handshake report: every update of segment `segment` of
/// event `event`, owned by domain `domain`, has been acknowledged by the
/// segment's switches. Each downstream controller *share-signs* this body
/// with its domain threshold share — the body names no controller, so all
/// shares cover identical bytes and any `⌊(n−1)/3⌋+1` of them aggregate
/// into one signature under the downstream domain's group key, which is
/// what an upstream controller checks before releasing (DESIGN.md §3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentBody {
    /// The event whose update list the segment belongs to.
    pub event: EventId,
    /// The segment's index within the event's full update list.
    pub segment: u32,
    /// The reporting (segment-owning, downstream) domain.
    pub domain: DomainId,
}

impl Wire for SegmentBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.event.encode(buf);
        self.segment.encode(buf);
        self.domain.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(SegmentBody {
            event: EventId::decode(buf)?,
            segment: u32::decode(buf)?,
            domain: DomainId::decode(buf)?,
        })
    }
}

/// The handshake's receipt half: an upstream controller confirms it holds
/// a *verified, logged* quorum of [`SegmentBody`] shares, stopping the
/// downstream controllers' retransmission to it. Identity-signed once per
/// barrier — the signer is the envelope's `msg_id.origin` in `domain` — and
/// re-sent as-is to late or duplicate reporters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReleaseBody {
    /// The event the receipt refers to.
    pub event: EventId,
    /// The confirmed segment index.
    pub segment: u32,
    /// The confirming controller's domain (the upstream domain).
    pub domain: DomainId,
}

impl Wire for ReleaseBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.event.encode(buf);
        self.segment.encode(buf);
        self.domain.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ReleaseBody {
            event: EventId::decode(buf)?,
            segment: u32::decode(buf)?,
            domain: DomainId::decode(buf)?,
        })
    }
}

/// What a switch is asked to apply, in every mode: the network update plus
/// the dependency metadata the switch itself enforces. Signed modes
/// threshold-sign it *as one body*, so a switch cannot be lied to about what
/// must precede the update or whom to release next. `gates` are the updates
/// that must be applied (and announced by their switch) before this one may
/// go in; `notify` are the switches waiting on *this* update, to be released
/// with a signed [`ReadyBody`]. Both are empty wherever the controllers hold
/// the dependencies themselves (every mode but Segway).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateBody {
    /// The network update itself.
    pub update: NetworkUpdate,
    /// Prerequisites: `(update, the switch that applies it)`.
    pub gates: Vec<(UpdateId, SwitchId)>,
    /// Switches whose next segment this update releases.
    pub notify: Vec<SwitchId>,
}

impl Wire for UpdateBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.update.encode(buf);
        self.gates.encode(buf);
        self.notify.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(UpdateBody {
            update: NetworkUpdate::decode(buf)?,
            gates: Vec::decode(buf)?,
            notify: Vec::decode(buf)?,
        })
    }
}

/// A Segway switch-to-switch release: switch `from` applied `update` and
/// tells switch `to` (named in `from`'s threshold-signed `notify` list)
/// that the corresponding gate is open. Signed with `from`'s identity key;
/// the `to` binding stops a rogue switch replaying a captured ready at a
/// different victim. The same body, re-signed by the *recipient*, serves
/// as the receipt that stops `from`'s retransmission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadyBody {
    /// The applied (gating) update.
    pub update: UpdateId,
    /// The switch that applied it.
    pub from: SwitchId,
    /// The released switch.
    pub to: SwitchId,
}

impl Wire for ReadyBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.update.encode(buf);
        self.from.encode(buf);
        self.to.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ReadyBody {
            update: UpdateId::decode(buf)?,
            from: SwitchId::decode(buf)?,
            to: SwitchId::decode(buf)?,
        })
    }
}

/// The per-domain control-plane state switches must track across
/// membership changes: phase, quorum size, aggregator. Distributed to
/// switches under the (membership-invariant) group public key, replacing
/// the paper's per-switch "master/slave role request" messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PhaseInfo {
    /// Current membership phase.
    pub phase: Phase,
    /// Update quorum `⌊(n-1)/3⌋ + 1`.
    pub quorum: u32,
    /// The aggregator controller (lowest live identifier).
    pub aggregator: ControllerId,
}

impl Wire for PhaseInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.phase.encode(buf);
        self.quorum.encode(buf);
        self.aggregator.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PhaseInfo {
            phase: Phase::decode(buf)?,
            quorum: u32::decode(buf)?,
            aggregator: ControllerId::decode(buf)?,
        })
    }
}

/// Operations totally ordered by each domain's atomic broadcast.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OrderedOp {
    /// A validated data-plane event.
    Event(Event),
    /// Membership: admit the controller with this (fresh) identifier,
    /// proposed by the bootstrap controller.
    AddController(ControllerId),
    /// Membership: remove a (suspected-faulty or retiring) controller.
    RemoveController(ControllerId),
}

impl Wire for OrderedOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            OrderedOp::Event(e) => {
                0u8.encode(buf);
                e.encode(buf);
            }
            OrderedOp::AddController(c) => {
                1u8.encode(buf);
                c.encode(buf);
            }
            OrderedOp::RemoveController(c) => {
                2u8.encode(buf);
                c.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(OrderedOp::Event(Event::decode(buf)?)),
            1 => Ok(OrderedOp::AddController(ControllerId::decode(buf)?)),
            2 => Ok(OrderedOp::RemoveController(ControllerId::decode(buf)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl BftPayload for OrderedOp {
    fn digest(&self) -> Digest {
        sha256_parts("CICERO_ORDERED_OP", &[&self.to_wire()])
    }
}

/// One durable control-plane fact in a controller's write-ahead log. A
/// snapshot is the same alphabet, compacted: the delivered-op archive plus
/// the ack/barrier facts that reconstruct the pending-update graph (see
/// DESIGN.md §Durability). Each record is Wire-encoded into one
/// checksummed `substrate::storage` frame.
#[derive(Clone, PartialEq, Debug)]
pub enum WalRecord {
    /// Consensus delivered `op` at sequence `seq` (logged *before* the op
    /// is acted on).
    Deliver {
        /// Consensus sequence number.
        seq: u64,
        /// The delivered operation.
        op: OrderedOp,
    },
    /// A verified acknowledgement completed `update`.
    Acked(UpdateId),
    /// A downstream signer of the *verified* segment-report quorum counted
    /// toward releasing the cross-domain barrier `barrier`.
    BarrierSigner {
        /// The synthetic barrier update id.
        barrier: UpdateId,
        /// The reporting downstream domain.
        domain: DomainId,
        /// The reporting downstream controller.
        controller: ControllerId,
    },
    /// The local BFT replica entered `view`.
    BftView(u64),
    /// The local replica bound `(view, seq)` to a slot (`None` = noop
    /// filler) and cast its prepare vote.
    BftAccepted {
        /// View of the binding.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// The bound payload (`None` for a noop gap filler).
        op: Option<OrderedOp>,
    },
    /// The local replica collected a prepare quorum for
    /// `(view, seq, digest)` and cast its commit vote.
    BftPrepared {
        /// View of the certificate.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Slot digest.
        digest: [u8; 32],
    },
}

impl Wire for WalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Deliver { seq, op } => {
                0u8.encode(buf);
                seq.encode(buf);
                op.encode(buf);
            }
            WalRecord::Acked(u) => {
                1u8.encode(buf);
                u.encode(buf);
            }
            WalRecord::BarrierSigner {
                barrier,
                domain,
                controller,
            } => {
                2u8.encode(buf);
                barrier.encode(buf);
                domain.encode(buf);
                controller.encode(buf);
            }
            WalRecord::BftView(v) => {
                3u8.encode(buf);
                v.encode(buf);
            }
            WalRecord::BftAccepted { view, seq, op } => {
                4u8.encode(buf);
                view.encode(buf);
                seq.encode(buf);
                op.is_some().encode(buf);
                if let Some(op) = op {
                    op.encode(buf);
                }
            }
            WalRecord::BftPrepared { view, seq, digest } => {
                5u8.encode(buf);
                view.encode(buf);
                seq.encode(buf);
                digest.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(WalRecord::Deliver {
                seq: u64::decode(buf)?,
                op: OrderedOp::decode(buf)?,
            }),
            1 => Ok(WalRecord::Acked(UpdateId::decode(buf)?)),
            2 => Ok(WalRecord::BarrierSigner {
                barrier: UpdateId::decode(buf)?,
                domain: DomainId::decode(buf)?,
                controller: ControllerId::decode(buf)?,
            }),
            3 => Ok(WalRecord::BftView(u64::decode(buf)?)),
            4 => {
                let view = u64::decode(buf)?;
                let seq = u64::decode(buf)?;
                let op = if bool::decode(buf)? {
                    Some(OrderedOp::decode(buf)?)
                } else {
                    None
                };
                Ok(WalRecord::BftAccepted { view, seq, op })
            }
            5 => Ok(WalRecord::BftPrepared {
                view: u64::decode(buf)?,
                seq: u64::decode(buf)?,
                digest: <[u8; 32]>::decode(buf)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Durable switch-side journal records.
///
/// Switches keep a small WAL mirroring the controller one: applied updates
/// (so a restarted switch reboots with its flow table and dedup set intact)
/// plus the Segway release ledger. A ready is journaled *before* it goes on
/// the wire and its receipt *when* it arrives, so a switch restarting
/// mid-update resumes retransmitting un-receipted readies without ever
/// re-releasing a neighbor it already released (exactly-once release), and
/// an accepted incoming ready survives the restart — the receipt we sent
/// for it is a promise to remember it, since the sender stops
/// retransmitting on receipt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchWalRecord {
    /// The switch applied `update`, backed by `signers` signature shares.
    Applied {
        /// The applied update (full body: replay rebuilds the flow table).
        update: NetworkUpdate,
        /// Distinct signers backing the apply.
        signers: u32,
    },
    /// A Segway ready for gating update `update` was released to `to`.
    ReadySent {
        /// The gating update.
        update: UpdateId,
        /// The released neighbor.
        to: SwitchId,
    },
    /// `to` receipted the ready — retransmission can stop for good.
    ReadyReceipted {
        /// The gating update.
        update: UpdateId,
        /// The receipting neighbor.
        to: SwitchId,
    },
    /// A verified ready from `from` announcing `update` was accepted.
    ReadyIn {
        /// The gating update.
        update: UpdateId,
        /// The designated releaser that announced it.
        from: SwitchId,
    },
}

impl Wire for SwitchWalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SwitchWalRecord::Applied { update, signers } => {
                0u8.encode(buf);
                update.encode(buf);
                signers.encode(buf);
            }
            SwitchWalRecord::ReadySent { update, to } => {
                1u8.encode(buf);
                update.encode(buf);
                to.encode(buf);
            }
            SwitchWalRecord::ReadyReceipted { update, to } => {
                2u8.encode(buf);
                update.encode(buf);
                to.encode(buf);
            }
            SwitchWalRecord::ReadyIn { update, from } => {
                3u8.encode(buf);
                update.encode(buf);
                from.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(SwitchWalRecord::Applied {
                update: NetworkUpdate::decode(buf)?,
                signers: u32::decode(buf)?,
            }),
            1 => Ok(SwitchWalRecord::ReadySent {
                update: UpdateId::decode(buf)?,
                to: SwitchId::decode(buf)?,
            }),
            2 => Ok(SwitchWalRecord::ReadyReceipted {
                update: UpdateId::decode(buf)?,
                to: SwitchId::decode(buf)?,
            }),
            3 => Ok(SwitchWalRecord::ReadyIn {
                update: UpdateId::decode(buf)?,
                from: SwitchId::decode(buf)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Everything that travels between simulated nodes.
#[derive(Clone, Debug)]
pub enum Net {
    /// Harness → ingress ToR switch: a workload flow arrives.
    FlowArrival {
        /// Flow id.
        flow: FlowId,
        /// Source host.
        src: HostId,
        /// Destination host.
        dst: HostId,
        /// Flow size in bytes.
        bytes: u64,
        /// Precomputed data-plane transit latency of the flow's route.
        transit: SimDuration,
        /// Arrival time (for completion-latency accounting).
        start: SimTime,
    },
    /// Switch → itself (delayed): the flow finished transmitting.
    FlowDone {
        /// Flow id.
        flow: FlowId,
        /// Original arrival time.
        start: SimTime,
        /// Source host (for teardown events).
        src: HostId,
        /// Destination host.
        dst: HostId,
    },
    /// Switch → controller(s): a signed data-plane event.
    EventMsg(Signed<Event>),
    /// Controller → controller: a signed cross-domain event forward
    /// (paper §4.1, tagged `forwarded` inside the event).
    ForwardedEvent(Signed<Event>),
    /// Controller ↔ controller: consensus traffic. Tagged with the sender's
    /// membership phase so messages from a superseded consensus group are
    /// discarded after a membership change.
    Consensus {
        /// Sender's membership phase.
        phase: Phase,
        /// Sending controller (within the domain).
        from: ControllerId,
        /// The PBFT message.
        msg: Box<BftMessage<OrderedOp>>,
    },
    /// Controller → switch: a share-signed update body (switch aggregation
    /// and Segway — there the body carries gate/notify metadata, and the
    /// switch gates application on signed neighbor readies instead of
    /// controller order).
    UpdateMsg(ShareSigned<UpdateBody>),
    /// Controller → switch: an unauthenticated update body (centralized /
    /// crash-tolerant baselines).
    UpdatePlain(UpdateBody),
    /// Controller → aggregator: a share-signed update body to aggregate.
    UpdateToAggregator(ShareSigned<UpdateBody>),
    /// Switch → switch (Segway): a signed release — the sender applied the
    /// gating update named inside; retransmitted with backoff until
    /// receipted by a [`Net::SegwayReadyAck`].
    SegwayReady(Signed<ReadyBody>),
    /// Switch → switch (Segway): receipt for a [`Net::SegwayReady`] (the
    /// echoed body, signed by the recipient); stops its retransmission.
    SegwayReadyAck(Signed<ReadyBody>),
    /// Aggregator → switch: the quorum-aggregated update body.
    UpdateAggregated(QuorumSigned<UpdateBody>),
    /// Switch → controller(s): signed application acknowledgement.
    AckMsg(Signed<AckBody>),
    /// Switch → controller(s): signed negative acknowledgement — a share
    /// bucket aged below quorum; please re-send the missing signed update
    /// (reliable-delivery layer, see DESIGN.md).
    UpdateNack(Signed<NackBody>),
    /// Controller → controller: liveness heartbeat.
    Heartbeat {
        /// Sender.
        from: ControllerId,
        /// Sender's current phase.
        phase: Phase,
    },
    /// Controller → controller: a share-redistribution dealing for the
    /// given phase (paper §4.3 — new shares, same group public key).
    Reshare {
        /// Target phase.
        phase: Phase,
        /// The dealing (commitment + per-recipient sub-shares).
        dealing: ReshareDealing,
    },
    /// Controller → aggregator: partial signature over the new
    /// [`PhaseInfo`] after a completed reshare.
    PhasePartial(ShareSigned<PhaseInfo>),
    /// Aggregator → switches: the quorum-signed phase notice.
    PhaseNotice(QuorumSigned<PhaseInfo>),
    /// Harness → switch: a physical port/link went down; the switch raises
    /// a signed `LinkFailure` event (paper Fig. 2).
    LinkDown {
        /// One endpoint (the receiving switch).
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
    /// Controller → upstream controllers: this controller's threshold
    /// share over "this domain's segment of the event's update list is
    /// fully applied" (cross-domain ordering handshake; retransmitted with
    /// backoff until receipted).
    SegmentApplied(ShareSigned<SegmentBody>),
    /// Upstream controller → downstream controller: receipt for a verified
    /// quorum of [`Net::SegmentApplied`] shares (stops their
    /// retransmission to the sender).
    BoundaryRelease(Signed<ReleaseBody>),
    /// Harness → bootstrap controller: propose a membership change.
    MembershipCmd(OrderedOp),
    /// Bootstrap → newly added controller: the control-plane state a joiner
    /// needs (paper §4.3 step iv; topology and policies are shared state in
    /// the simulation, so the membership view is what travels).
    StateSync {
        /// The post-change membership view.
        view: controller::membership::ControlPlaneView,
    },
    /// Restarted/fresh replica → domain peers: "my durable log ends at
    /// consensus sequence `have`; send me what I missed" (snapshot-transfer
    /// catch-up; re-sent with the retry cadence until answered).
    SyncRequest {
        /// The requesting controller's domain.
        domain: DomainId,
        /// The requesting controller.
        from: ControllerId,
        /// Highest consensus sequence in the requester's durable state.
        have: u64,
    },
    /// Active peer → recovering replica: the peer's log past the
    /// requester's frontier, compacted into [`WalRecord`]s exactly as a
    /// snapshot is (minus the peer's own consensus journal): deliveries
    /// with `seq > have` in delivery order, then the ack archive — without
    /// it a disk-lost restart would replay every synced event as if freshly
    /// delivered and wait forever for acknowledgements consumed before the
    /// crash — then every counted barrier signer (segment reports are
    /// retransmitted only to controllers with outstanding receipts, so a
    /// receipted-then-lost signer fact would otherwise never be re-learned).
    SyncReply {
        /// The answering controller.
        from: ControllerId,
        /// The compacted log.
        records: Vec<WalRecord>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use southbound::types::{DomainId, EventId, EventKind};

    #[test]
    fn ordered_op_digest_distinguishes_ops() {
        let e = Event {
            id: EventId(1),
            kind: EventKind::PolicyChange { policy: 9 },
            origin: DomainId(0),
            forwarded: false,
        };
        let a = OrderedOp::Event(e).digest();
        let mut e2 = e;
        e2.forwarded = true;
        let b = OrderedOp::Event(e2).digest();
        assert_ne!(a, b, "forwarded flag is part of identity");
        assert_ne!(
            OrderedOp::AddController(ControllerId(5)).digest(),
            OrderedOp::RemoveController(ControllerId(5)).digest()
        );
    }

    #[test]
    fn wal_record_round_trip() {
        let e = Event {
            id: EventId(7),
            kind: EventKind::PolicyChange { policy: 2 },
            origin: DomainId(1),
            forwarded: false,
        };
        let records = vec![
            WalRecord::Deliver {
                seq: 3,
                op: OrderedOp::Event(e),
            },
            WalRecord::Acked(UpdateId {
                event: EventId(7),
                seq: 1,
            }),
            WalRecord::BarrierSigner {
                barrier: UpdateId {
                    event: EventId(7),
                    seq: 0xFFFF_0001,
                },
                domain: DomainId(1),
                controller: ControllerId(3),
            },
            WalRecord::BftView(4),
            WalRecord::BftAccepted {
                view: 4,
                seq: 9,
                op: None,
            },
            WalRecord::BftAccepted {
                view: 4,
                seq: 10,
                op: Some(OrderedOp::AddController(ControllerId(6))),
            },
            WalRecord::BftPrepared {
                view: 4,
                seq: 9,
                digest: [0xAB; 32],
            },
        ];
        for r in records {
            assert_eq!(WalRecord::from_wire(&r.to_wire()).unwrap(), r);
        }
        assert!(WalRecord::from_wire(&[9, 9, 9]).is_err());
    }

    #[test]
    fn nack_body_round_trip() {
        let n = NackBody {
            update: UpdateId {
                event: EventId(12),
                seq: 3,
            },
            switch: SwitchId(4),
            have: 1,
        };
        assert_eq!(NackBody::from_wire(&n.to_wire()).unwrap(), n);
    }

    #[test]
    fn ack_body_round_trip() {
        let a = AckBody {
            update: UpdateId {
                event: EventId(3),
                seq: 1,
            },
            switch: SwitchId(7),
        };
        assert_eq!(AckBody::from_wire(&a.to_wire()).unwrap(), a);
    }

    /// The body's encoding is what a quorum of controllers must share-sign
    /// identically, whatever build each runs: pinned byte for byte.
    #[test]
    fn update_body_golden_bytes_and_round_trip() {
        use southbound::types::{FlowAction, FlowMatch, FlowRule, NextHop, UpdateKind};
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let gate = |seq, s| (UpdateId { event: EventId(9), seq }, SwitchId(s));
        let b = UpdateBody {
            update: NetworkUpdate {
                id: UpdateId {
                    event: EventId(9),
                    seq: 2,
                },
                switch: SwitchId(3),
                kind: UpdateKind::Install(FlowRule {
                    matcher: FlowMatch {
                        src: HostId(1),
                        dst: HostId(5),
                    },
                    action: FlowAction::Forward(NextHop::Switch(SwitchId(4))),
                }),
            },
            gates: vec![gate(3, 4), gate(4, 5), gate(5, 6), gate(6, 7)],
            notify: vec![SwitchId(1), SwitchId(2)],
        };
        assert_eq!(
            hex(&b.to_wire()),
            "0000000000000009000000020000000300000000010000000500000000000400000004\
             000000000000000900000003000000040000000000000009000000040000000500000000\
             000000090000000500000006000000000000000900000006000000070000000200000001\
             00000002"
        );
        assert_eq!(UpdateBody::from_wire(&b.to_wire()).unwrap(), b);
        let empty = UpdateBody {
            gates: Vec::new(),
            notify: Vec::new(),
            ..b
        };
        assert_eq!(
            hex(&empty.to_wire()),
            "000000000000000900000002000000030000000001000000050000000000040000000000000000"
        );
        assert_eq!(UpdateBody::from_wire(&empty.to_wire()).unwrap(), empty);
        // A length prefix longer than the input is refused before allocating.
        let mut lying = empty.to_wire();
        let at = lying.len() - 8;
        lying[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            UpdateBody::from_wire(&lying),
            Err(DecodeError::BadLength(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn ready_body_round_trip() {
        let r = ReadyBody {
            update: UpdateId {
                event: EventId(11),
                seq: 0,
            },
            from: SwitchId(6),
            to: SwitchId(2),
        };
        assert_eq!(ReadyBody::from_wire(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn switch_wal_record_round_trip() {
        use southbound::types::{FlowAction, FlowMatch, FlowRule, NextHop, UpdateKind};
        let records = [
            SwitchWalRecord::Applied {
                update: NetworkUpdate {
                    id: UpdateId {
                        event: EventId(3),
                        seq: 1,
                    },
                    switch: SwitchId(2),
                    kind: UpdateKind::Install(FlowRule {
                        matcher: FlowMatch {
                            src: HostId(0),
                            dst: HostId(7),
                        },
                        action: FlowAction::Forward(NextHop::Switch(SwitchId(3))),
                    }),
                },
                signers: 4,
            },
            SwitchWalRecord::ReadySent {
                update: UpdateId {
                    event: EventId(3),
                    seq: 1,
                },
                to: SwitchId(5),
            },
            SwitchWalRecord::ReadyReceipted {
                update: UpdateId {
                    event: EventId(3),
                    seq: 1,
                },
                to: SwitchId(5),
            },
            SwitchWalRecord::ReadyIn {
                update: UpdateId {
                    event: EventId(3),
                    seq: 2,
                },
                from: SwitchId(1),
            },
        ];
        for r in records {
            assert_eq!(SwitchWalRecord::from_wire(&r.to_wire()).unwrap(), r);
        }
    }

    #[test]
    fn segment_body_round_trip() {
        let s = SegmentBody {
            event: EventId((7 << 32) | 3),
            segment: 2,
            domain: DomainId(1),
        };
        assert_eq!(SegmentBody::from_wire(&s.to_wire()).unwrap(), s);
    }

    #[test]
    fn release_body_round_trip() {
        let r = ReleaseBody {
            event: EventId(99),
            segment: 0,
            domain: DomainId(0),
        };
        assert_eq!(ReleaseBody::from_wire(&r.to_wire()).unwrap(), r);
    }
}
