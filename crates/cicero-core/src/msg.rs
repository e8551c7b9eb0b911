//! The protocol message alphabet exchanged by simulated nodes, and the
//! consensus payload type.

use bft::message::{BftMessage, BftPayload, Digest};
use blscrypto::dkg::GroupPublic;
use blscrypto::reshare::ReshareDealing;
use blscrypto::sha256::sha256_parts;
use simnet::time::{SimDuration, SimTime};
use southbound::codec::Wire;
use southbound::envelope::{QuorumSigned, ShareSigned, Tagged};
use southbound::merkle::{self, TreeHash};
use southbound::types::{
    ControllerId, DomainId, Event, EventId, FlowId, HostId, NetworkUpdate, Phase, SwitchId,
    UpdateId,
};
use southbound::{wire_enum, wire_struct};

/// An acknowledgement body: switch `switch` applied update `update`
/// (paper §4.1 — verified acks drain dependency sets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AckBody {
    /// The applied update.
    pub update: UpdateId,
    /// The acknowledging switch.
    pub switch: SwitchId,
}

wire_struct!(AckBody { update, switch });

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

wire_struct!(NackBody { update, switch, have });

/// A cross-domain handshake report: every update of segment `segment` of
/// event `event`, owned by domain `domain`, has been acknowledged by the
/// segment's switches. Each downstream controller tags this body for each
/// upstream controller under the key the two share; an upstream controller
/// releases once `⌊(n−1)/3⌋+1` distinct members of the downstream domain
/// have reported (DESIGN.md §3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentBody {
    /// The event whose update list the segment belongs to.
    pub event: EventId,
    /// The segment's index within the event's full update list.
    pub segment: u32,
    /// The reporting (segment-owning, downstream) domain.
    pub domain: DomainId,
}

wire_struct!(SegmentBody { event, segment, domain });

/// What a switch is asked to apply, in every mode: the network update plus
/// the dependency metadata the switch itself enforces. Signed modes
/// threshold-sign it *as one body* — a leaf of its [`UpdateSet`] — so a
/// switch cannot be lied to about what must precede the update or whom to
/// release next. `gates` are the updates
/// that must be applied (and announced by their switch) before this one may
/// go in; `notify` are the switches waiting on *this* update, to be released
/// with a tagged [`ReadyBody`], which each checks against the gates of its
/// own body. Both are empty wherever the controllers hold the dependencies
/// themselves (every mode but Segway). `held` marks a Cicero update with
/// dependencies: it is signed and sent at admission, and the switch keeps
/// the certified body until `⌊(n−1)/3⌋+1` current members send a tagged
/// [`Release`] for it. Whether an update has dependencies is a property of
/// the deterministic schedule, so every honest controller signs the same
/// body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateBody {
    /// The network update itself.
    pub update: NetworkUpdate,
    /// Prerequisites: `(update, the switch that applies it)`.
    pub gates: Vec<(UpdateId, SwitchId)>,
    /// Switches whose next segment this update releases.
    pub notify: Vec<SwitchId>,
    /// Applied only once released by the controllers.
    pub held: bool,
}

wire_struct!(UpdateBody { update, gates, notify, held });

/// What a quorum of one domain's controllers signs for an event: the
/// domain's update set, as the RFC 6962 tree hash over its members'
/// [`UpdateBody`] wire bytes in ascending [`UpdateId`] order. In Segway and
/// in the Cicero path that releases by tag, a set is the event's whole
/// projected schedule in the domain; on the paper's path each update is a
/// set of one (DESIGN.md §3, "One share per domain-event"). `size` bounds
/// the members' indices, and `event` the updates they may carry. The tree
/// is hashed with the run's [`TreeHash`] — SHA-256 under
/// [`crate::config::CryptoMode::Real`], the modeled mix below it — so at
/// every level the root binds each member's body, and shares bucket per
/// set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct UpdateSet {
    /// The event whose updates the set holds.
    pub event: EventId,
    /// The signing domain.
    pub domain: DomainId,
    /// How many members the set has.
    pub size: u32,
    /// The tree hash over the members' bodies.
    pub root: [u8; 32],
}

wire_struct!(UpdateSet { event, domain, size, root });

impl UpdateSet {
    /// The set of `bodies` — `event`'s updates in `domain`, ascending by
    /// id — under its root by the tree hash `hash`, and each body as a
    /// member with its audit path.
    pub fn of(
        hash: TreeHash,
        event: EventId,
        domain: DomainId,
        bodies: Vec<UpdateBody>,
    ) -> (UpdateSet, Vec<Member>) {
        let leaves: Vec<merkle::Hash> = bodies.iter().map(|b| merkle::leaf_hash(hash, &b.to_wire())).collect();
        let root = merkle::root(hash, &leaves);
        let set = UpdateSet { event, domain, size: bodies.len() as u32, root };
        let members = bodies.into_iter().enumerate();
        let members = members.map(|(i, body)| Member { body, index: i as u32, path: merkle::path(hash, i, &leaves) });
        (set, members.collect())
    }

    /// `true` iff `member`'s audit path leads its body to this root under
    /// `hash`.
    pub fn binds(&self, hash: TreeHash, member: &Member) -> bool {
        let data = member.body.to_wire();
        merkle::verify(hash, &data, member.index, self.size, &member.path, &self.root)
    }
}

/// One update of a signed [`UpdateSet`] as it travels: its body, its leaf
/// index, and the audit path from the leaf to the set's root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Member {
    /// The update's body.
    pub body: UpdateBody,
    /// The body's leaf index in the set.
    pub index: u32,
    /// Sibling hashes from the leaf up (RFC 6962 `PATH`).
    pub path: Vec<merkle::Hash>,
}

wire_struct!(Member { body, index, path });

/// A controller's word that held update `update` may now go in at switch
/// `switch`: every dependency of it is acknowledged here. Tagged under the
/// pair key k(controller→`switch`), so only the addressed switch can check
/// it and nobody else is shown it; its tag binds the update and the phase.
/// The switch applies the certified body on releases from `⌊(n−1)/3⌋+1`
/// distinct current members, so f Byzantine controllers cannot release it
/// early. Tagged once per phase and kept: a retransmission or a NACK answer
/// re-sends it with the kept share.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Release {
    /// The held update.
    pub update: UpdateId,
    /// The switch that holds it.
    pub switch: SwitchId,
}

wire_struct!(Release { update, switch });

/// A Segway switch-to-switch release: switch `from` applied `update` and
/// tells switch `to` (named in `from`'s threshold-signed `notify` list)
/// that the corresponding gate is open. Tagged under the pair key
/// k(`from`→`to`), which binds both ends and the direction: only `to` can
/// check it, and nobody else is ever shown it. The `to` binding stops a
/// rogue switch replaying a captured ready at a different victim. Tagged
/// once and kept by `from`; never acknowledged — `to` asks again while its
/// gate stays closed ([`Net::SegwayReadyQuery`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadyBody {
    /// The applied (gating) update.
    pub update: UpdateId,
    /// The switch that applied it.
    pub from: SwitchId,
    /// The released switch.
    pub to: SwitchId,
}

wire_struct!(ReadyBody { update, from, to });

/// The per-domain control-plane state switches must track across
/// membership changes: phase, quorum size, aggregator, members. Distributed
/// to switches under the (membership-invariant) group public key, replacing
/// the paper's per-switch "master/slave role request" messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhaseInfo {
    /// Current membership phase.
    pub phase: Phase,
    /// Update quorum `⌊(n-1)/3⌋ + 1`.
    pub quorum: u32,
    /// The aggregator controller (lowest live identifier).
    pub aggregator: ControllerId,
    /// The members, ascending: whose [`Release`]s a switch counts.
    pub members: Vec<ControllerId>,
}

wire_struct!(PhaseInfo { phase, quorum, aggregator, members });

impl PhaseInfo {
    /// What switches must know of `view`: its phase, quorum, aggregator and
    /// members.
    pub fn of(view: &controller::membership::ControlPlaneView) -> Self {
        PhaseInfo {
            phase: view.phase(),
            quorum: view.quorum() as u32,
            aggregator: view.aggregator(),
            members: view.members().collect(),
        }
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

wire_enum!(OrderedOp { 0 => Event(e), 1 => AddController(c), 2 => RemoveController(c) });

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
    /// A downstream controller whose segment report for the cross-domain
    /// barrier `barrier` passed its tag check — logged on arrival, below
    /// the release quorum too.
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

wire_enum!(WalRecord {
    0 => Deliver { seq, op },
    1 => Acked(update),
    2 => BarrierSigner { barrier, domain, controller },
    3 => BftView(view),
    4 => BftAccepted { view, seq, op },
    5 => BftPrepared { view, seq, digest },
});

/// Durable switch-side journal records.
///
/// Switches keep a small WAL mirroring the controller one: applied updates
/// (so a restarted switch reboots with its flow table and dedup set intact)
/// plus the Segway release ledger. A ready is journaled *before* it goes on
/// the wire, so a switch restarting mid-update never re-releases a neighbor
/// it already released (exactly-once release) and still answers that
/// neighbor's queries for the ready; an accepted incoming ready is
/// journaled too, because the restarted switch could otherwise only ask
/// for it again — and the releaser may have crashed for good since. Tag 2
/// (a receipt record, retired) is skipped on replay like any unknown frame.
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
    /// A verified ready from `from` announcing `update` was accepted.
    ReadyIn {
        /// The gating update.
        update: UpdateId,
        /// The designated releaser that announced it.
        from: SwitchId,
    },
}

wire_enum!(SwitchWalRecord {
    0 => Applied { update, signers },
    1 => ReadySent { update, to },
    3 => ReadyIn { update, from },
});

/// Everything that travels between simulated nodes. No unsigned message
/// names its sender: the transport does (`Directory::peer` of the `from` a
/// handler is handed), and a field restating it would only be trusted. A
/// set's [`Member`] travels boxed: every mailbox slot of the threaded
/// executor is as large as the largest variant.
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
    /// An event, tagged under the pair's key. Either switch → one
    /// controller: a data-plane event (one body and id, one copy per
    /// controller it goes to; re-sent re-tagged under the same id). Or,
    /// marked `forwarded` inside the event, controller → one controller of
    /// another domain: a cross-domain event forward (paper §4.1), re-sent by
    /// every controller still waiting on the receiver's domain; to a
    /// receiver that has delivered the event, the re-send asks for its
    /// segment reports.
    EventMsg(Tagged<Event>),
    /// Controller ↔ controller: consensus traffic. Tagged with the sender's
    /// membership phase so messages from a superseded consensus group are
    /// discarded after a membership change.
    Consensus {
        /// Sender's membership phase.
        phase: Phase,
        /// The PBFT message.
        msg: Box<BftMessage<OrderedOp>>,
    },
    /// Controller → switch: the sender's share of an update set, with the
    /// switch's member of it (switch aggregation and Segway — there the
    /// body carries gate/notify metadata, and the switch gates application
    /// on tagged neighbor readies instead of controller order).
    UpdateMsg(ShareSigned<UpdateSet>, Box<Member>),
    /// Controller → switch: an unauthenticated update body (centralized /
    /// crash-tolerant baselines).
    UpdatePlain(UpdateBody),
    /// Controller → aggregator: the sender's share of an update set, with
    /// one member of it to relay.
    UpdateToAggregator(ShareSigned<UpdateSet>, Box<Member>),
    /// Switch → switch (Segway): a release tagged for the released switch —
    /// the sender applied the gating update named inside (sent once, and
    /// again when the released switch asks with a [`Net::SegwayReadyQuery`]).
    SegwayReady(Tagged<ReadyBody>),
    /// Switch → the switch of a closed gate (Segway): "I hold a parked body
    /// gated on `update` at you — send me your ready again". Unsigned: the
    /// answer goes to the asker alone and is a ready already addressed to it.
    SegwayReadyQuery {
        /// The gating update.
        update: UpdateId,
    },
    /// Aggregator → switch: the quorum-aggregated update set, with the
    /// switch's member of it.
    UpdateAggregated(QuorumSigned<UpdateSet>, Box<Member>),
    /// Controller → switch: a held update may go in, tagged for the switch
    /// alone (sent once its dependencies are acknowledged, and again with
    /// the kept share on a retransmission or a NACK answer).
    UpdateRelease(Tagged<Release>),
    /// Switch → one controller: application acknowledgement, tagged under
    /// the pair's key (one copy per bootstrap controller of the domain).
    AckMsg(Tagged<AckBody>),
    /// Switch → one controller: tagged negative acknowledgement — a share
    /// bucket aged below quorum; please re-send the missing signed update
    /// (reliable-delivery layer, see DESIGN.md).
    UpdateNack(Tagged<NackBody>),
    /// Controller → controller: liveness heartbeat.
    Heartbeat {
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
    /// a `LinkFailure` event (paper Fig. 2).
    LinkDown {
        /// One endpoint (the receiving switch).
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
    /// Controller → one upstream controller: "this domain's segment of the
    /// event's update list is fully applied", tagged under the pair's key
    /// (cross-domain ordering handshake; one copy per upstream controller,
    /// sent once, and again to whoever re-forwards it the event,
    /// a forwarded [`Net::EventMsg`]).
    SegmentApplied(Tagged<SegmentBody>),
    /// Harness → bootstrap controller: propose a membership change.
    MembershipCmd(OrderedOp),
    /// Bootstrap → newly added controller: the control-plane state a joiner
    /// needs (paper §4.3 step iv; topology and policies are shared state in
    /// the simulation, so the membership view and the sharing's commitment
    /// are what travels).
    StateSync {
        /// The post-change membership view.
        view: controller::membership::ControlPlaneView,
        /// The commitment of the domain's current shares — what the joiner
        /// checks the dealings of its re-key against, whatever reshares came
        /// before it.
        group: GroupPublic,
    },
    /// Restarted/fresh replica → domain peers: "my durable log ends at
    /// consensus sequence `have`; send me what I missed" (snapshot-transfer
    /// catch-up; re-sent with the retry cadence until answered).
    SyncRequest {
        /// Highest consensus sequence in the requester's durable state.
        have: u64,
    },
    /// Active peer → recovering replica: the peer's log past the
    /// requester's frontier, compacted into [`WalRecord`]s exactly as a
    /// snapshot is (minus the peer's own consensus journal): deliveries
    /// with `seq > have` in delivery order, then the ack archive — without
    /// it a disk-lost restart would replay every synced event as if freshly
    /// delivered and wait forever for acknowledgements consumed before the
    /// crash — then every counted barrier signer (sparing the requester's
    /// barriers a round of asking for reports they already counted).
    SyncReply {
        /// The compacted log.
        records: Vec<WalRecord>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use southbound::codec::DecodeError;
    use southbound::types::{
        DomainId, EventId, EventKind, FlowAction, FlowMatch, FlowRule, NextHop, UpdateKind,
    };

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn id(seq: u32) -> UpdateId {
        UpdateId {
            event: EventId(0x0102030405060708),
            seq,
        }
    }

    fn event() -> Event {
        Event {
            id: EventId(0x1112131415161718),
            kind: EventKind::LinkFailure {
                a: SwitchId(0x21222324),
                b: SwitchId(0x31323334),
            },
            origin: DomainId(0x4142),
            forwarded: false,
        }
    }

    fn install() -> NetworkUpdate {
        NetworkUpdate {
            id: id(5),
            switch: SwitchId(0xb1b2b3b4),
            kind: UpdateKind::Install(FlowRule {
                matcher: FlowMatch {
                    src: HostId(0xc1c2c3c4),
                    dst: HostId(0xd1d2d3d4),
                },
                action: FlowAction::Forward(NextHop::Host(HostId(0xe1e2e3e4))),
            }),
        }
    }

    /// One controller WAL record of each variant (`BftAccepted` both ways),
    /// with the frame bytes the code *before* the declarative codec wrote.
    fn wal_golden() -> Vec<(WalRecord, &'static str)> {
        vec![
            (
                WalRecord::Deliver {
                    seq: 0x5152535455565758,
                    op: OrderedOp::Event(event()),
                },
                "005152535455565758001112131415161718022122232431323334414200",
            ),
            (
                WalRecord::Acked(id(0x61626364)),
                "01010203040506070861626364",
            ),
            (
                WalRecord::BarrierSigner {
                    barrier: id(0xFFFF_0001),
                    domain: DomainId(0x7172),
                    controller: ControllerId(0x81828384),
                },
                "020102030405060708ffff0001717281828384",
            ),
            (WalRecord::BftView(0x9192939495969798), "039192939495969798"),
            (
                WalRecord::BftAccepted {
                    view: 2,
                    seq: 3,
                    op: None,
                },
                "040000000000000002000000000000000300",
            ),
            (
                WalRecord::BftAccepted {
                    view: 2,
                    seq: 4,
                    op: Some(OrderedOp::RemoveController(ControllerId(0xa1a2a3a4))),
                },
                "04000000000000000200000000000000040102a1a2a3a4",
            ),
            (
                WalRecord::BftPrepared {
                    view: 2,
                    seq: 3,
                    digest: std::array::from_fn(|i| i as u8),
                },
                "0500000000000000020000000000000003\
                 000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            ),
        ]
    }

    /// One switch WAL record of each variant, pinned the same way.
    fn switch_wal_golden() -> Vec<(SwitchWalRecord, &'static str)> {
        vec![
            (
                SwitchWalRecord::Applied {
                    update: install(),
                    signers: 0xf1f2f3f4,
                },
                "00010203040506070800000005b1b2b3b400c1c2c3c4d1d2d3d40001e1e2e3e4f1f2f3f4",
            ),
            (
                SwitchWalRecord::ReadySent {
                    update: id(6),
                    to: SwitchId(0x0a0b0c0d),
                },
                "010102030405060708000000060a0b0c0d",
            ),
            (
                SwitchWalRecord::ReadyIn {
                    update: id(8),
                    from: SwitchId(0x2a2b2c2d),
                },
                "030102030405060708000000082a2b2c2d",
            ),
        ]
    }

    /// The on-disk format: a log written by an older build must replay.
    #[test]
    fn wal_record_golden_bytes() {
        for (record, frame) in wal_golden() {
            assert_eq!(hex(&record.to_wire()), frame, "{record:?}");
        }
        for (record, frame) in switch_wal_golden() {
            assert_eq!(hex(&record.to_wire()), frame, "{record:?}");
        }
    }

    /// Round-trips `v` and checks that `from_wire` refuses its encoding with
    /// one byte cut off and with one byte added.
    fn exact<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).as_ref(), Ok(&v));
        assert!(
            T::from_wire(&bytes[..bytes.len() - 1]).is_err(),
            "cut: {v:?}"
        );
        bytes.push(0);
        assert!(T::from_wire(&bytes).is_err(), "extended: {v:?}");
    }

    /// Every variant of every record declared in this file.
    #[test]
    fn every_declared_record_round_trips_exactly() {
        let (update, switch) = (id(1), SwitchId(7));
        exact(AckBody { update, switch });
        exact(NackBody {
            update,
            switch,
            have: 1,
        });
        exact(SegmentBody {
            event: EventId((7 << 32) | 3),
            segment: 2,
            domain: DomainId(1),
        });
        exact(UpdateBody {
            update: install(),
            gates: vec![(id(3), SwitchId(4))],
            notify: vec![SwitchId(1), SwitchId(2)],
            held: true,
        });
        exact(Release { update, switch });
        exact(ReadyBody {
            update,
            from: SwitchId(6),
            to: SwitchId(2),
        });
        exact(PhaseInfo {
            phase: Phase(3),
            quorum: 2,
            aggregator: ControllerId(1),
            members: vec![ControllerId(1), ControllerId(3)],
        });
        exact(OrderedOp::Event(event()));
        exact(OrderedOp::AddController(ControllerId(6)));
        exact(OrderedOp::RemoveController(ControllerId(6)));
        wal_golden().into_iter().for_each(|(r, _)| exact(r));
        switch_wal_golden().into_iter().for_each(|(r, _)| exact(r));
        assert_eq!(
            WalRecord::from_wire(&[9, 9, 9]),
            Err(DecodeError::BadTag(9))
        );
        assert_eq!(OrderedOp::from_wire(&[3]), Err(DecodeError::BadTag(3)));
        // Tag 2 is retired (the ready receipt) and never reassigned.
        for tag in [2, 4] {
            assert_eq!(
                SwitchWalRecord::from_wire(&[tag]),
                Err(DecodeError::BadTag(tag))
            );
        }
    }

    /// Update bodies arrive from the network and WAL frames from a disk
    /// that may be corrupt: neither may panic the reader.
    #[test]
    fn decoding_arbitrary_bytes_never_panics() {
        substrate::forall!(|g| {
            let bytes = g.bytes(255);
            let _ = UpdateBody::from_wire(&bytes);
            let _ = WalRecord::from_wire(&bytes);
            let _ = SwitchWalRecord::from_wire(&bytes);
        });
    }

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
            held: false,
        };
        // The bytes before `held` are the three-field body's, unchanged.
        assert_eq!(
            hex(&b.to_wire()),
            "0000000000000009000000020000000300000000010000000500000000000400000004\
             000000000000000900000003000000040000000000000009000000040000000500000000\
             000000090000000500000006000000000000000900000006000000070000000200000001\
             0000000200"
        );
        assert_eq!(UpdateBody::from_wire(&b.to_wire()).unwrap(), b);
        let empty = UpdateBody {
            gates: Vec::new(),
            notify: Vec::new(),
            ..b
        };
        assert_eq!(
            hex(&empty.to_wire()),
            "00000000000000090000000200000003000000000100000005000000000004000000000000000000"
        );
        let held = UpdateBody { held: true, ..empty.clone() };
        assert_eq!(hex(&held.to_wire()).strip_suffix("01"), hex(&empty.to_wire()).strip_suffix("00"));
        assert_eq!(UpdateBody::from_wire(&empty.to_wire()).unwrap(), empty);
        // A length prefix longer than the input is refused before allocating.
        let mut lying = empty.to_wire();
        let at = lying.len() - 9;
        lying[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            UpdateBody::from_wire(&lying),
            Err(DecodeError::BadLength(u64::from(u32::MAX)))
        );
    }
}
