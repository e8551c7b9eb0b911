//! The PBFT replica as a sans-io state machine.
//!
//! The replica never touches a network: [`Replica::handle`],
//! [`Replica::submit`] and [`Replica::on_tick`] return [`Output`]s that the
//! embedding (the Cicero controller actor, or an in-memory test harness)
//! routes. This keeps the consensus logic deterministic and directly
//! testable under adversarial schedules.
//!
//! Protocol: three-phase PBFT (pre-prepare / prepare / commit) with quorums
//! of `⌈(n + f + 1) / 2⌉` (`2f + 1` when `n = 3f + 1`), plus a
//! view-change protocol that adopts
//! prepared certificates into the new view and fills sequence gaps with
//! `Noop` slots (PBFT's null requests) so delivery stays contiguous.
//! Message authenticity is assumed from the transport (the controller layer
//! runs over authenticated channels; the paper's BFT-SMaRt deployment makes
//! the same assumption), while *equivocation* — conflicting proposals — is
//! detected by digest. Checkpoint garbage collection is omitted: simulation
//! runs are finite (documented deviation from BFT-SMaRt).

use crate::message::{BftMessage, BftPayload, Digest, Prepared, ReplicaId, Seq, Slot, View};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Consensus group parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BftConfig {
    /// Group size.
    pub n: u32,
}

/// Progress timeout in ticks before a view change is initiated (BFT-SMaRt's
/// request-timeout analogue; doubled per consecutive failed view).
const VIEW_TIMEOUT_TICKS: u32 = 8;

impl BftConfig {
    /// Creates a config; any `n >= 1` is accepted (an `n < 4` group
    /// tolerates zero faults).
    pub fn new(n: u32) -> Self {
        BftConfig { n }
    }

    /// Maximum tolerated Byzantine faults `⌊(n-1)/3⌋`.
    pub fn f(&self) -> u32 {
        (self.n.saturating_sub(1)) / 3
    }

    /// Quorum size `⌈(n + f + 1) / 2⌉`: the smallest for which any two
    /// quorums share `f + 1` replicas, one of them correct — `2f + 1` at
    /// `n = 3f + 1`, but more in between (at `n = 5, 6` two quorums of
    /// `2f + 1 = 3` can be disjoint, and two orders both commit).
    pub fn quorum(&self) -> usize {
        ((self.n + self.f() + 2) / 2) as usize
    }

    /// The primary of a view.
    pub fn primary(&self, view: View) -> ReplicaId {
        ReplicaId((view % self.n as u64) as u32)
    }
}

/// Actions the embedding must perform.
#[derive(Clone, Debug, PartialEq)]
pub enum Output<P> {
    /// Send to one replica.
    Send(ReplicaId, BftMessage<P>),
    /// Send to every *other* replica.
    Broadcast(BftMessage<P>),
    /// The payload is totally ordered: hand it to the application. Delivery
    /// order (by `Seq`) is identical at all correct replicas.
    Deliver(Seq, P),
}

/// A durable consensus fact, appended to [`Replica::take_journal`] at the
/// instant the replica's voting state advances. The embedding writes these
/// to its WAL *before* releasing the corresponding protocol messages, so a
/// restarted replica can be restored to a state from which it cannot
/// contradict any vote it already cast (no cross-restart equivocation).
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord<P> {
    /// Entered `view` (all later votes are cast in it).
    View(View),
    /// Bound `(view, seq)` to `slot` and cast the prepare vote.
    Accepted {
        /// View of the binding.
        view: View,
        /// Sequence number.
        seq: Seq,
        /// The bound slot content.
        slot: Slot<P>,
    },
    /// Collected a prepare quorum for `(view, seq, digest)` and cast the
    /// commit vote.
    Prepared {
        /// View of the certificate.
        view: View,
        /// Sequence number.
        seq: Seq,
        /// Slot digest.
        digest: Digest,
    },
}

#[derive(Clone, Debug)]
struct Entry<P> {
    view: View,
    digest: Option<Digest>,
    slot: Option<Slot<P>>,
    prepare_votes: BTreeMap<(View, Digest), BTreeSet<ReplicaId>>,
    commit_votes: BTreeMap<(View, Digest), BTreeSet<ReplicaId>>,
    prepared: bool,
    /// The highest-view prepared certificate this replica holds for the
    /// slot. It belongs to `(view, seq, digest)`, not to the binding: a
    /// re-proposal in a later view that fails to prepare there does not
    /// erase it, and every view-change vote reports it.
    certificate: Option<(View, Slot<P>)>,
    committed: bool,
    delivered: bool,
}

impl<P> Default for Entry<P> {
    fn default() -> Self {
        Entry {
            view: 0,
            digest: None,
            slot: None,
            prepare_votes: BTreeMap::new(),
            commit_votes: BTreeMap::new(),
            prepared: false,
            certificate: None,
            committed: false,
            delivered: false,
        }
    }
}

/// A PBFT replica.
pub struct Replica<P> {
    id: ReplicaId,
    cfg: BftConfig,
    view: View,
    in_view_change: bool,
    target_view: View,
    next_seq: Seq,
    entries: BTreeMap<Seq, Entry<P>>,
    last_delivered: Seq,
    pending: VecDeque<(Digest, P)>,
    /// The digests of `pending` this replica submitted itself, not only
    /// heard of in another replica's `Forward`.
    submitted: BTreeSet<Digest>,
    /// Digest → sequence of proposals in the *current view* (cleared on
    /// view entry). Used both for dedup and to re-broadcast a pre-prepare
    /// when a backup re-forwards a request it missed the proposal for.
    proposed_this_view: BTreeMap<Digest, Seq>,
    delivered_digests: BTreeSet<Digest>,
    ticks_waiting: u32,
    /// Consecutive view timeouts without delivery progress; exponent of
    /// the current timeout backoff.
    timeout_shift: u32,
    view_change_votes: BTreeMap<View, BTreeMap<ReplicaId, (Seq, Vec<Prepared<P>>)>>,
    /// Durable facts since the last [`Replica::take_journal`] drain.
    journal: Vec<JournalRecord<P>>,
}

impl<P: BftPayload> Replica<P> {
    /// Creates replica `id` of a group described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the group.
    pub fn new(id: ReplicaId, cfg: BftConfig) -> Self {
        assert!(id.0 < cfg.n, "replica id out of range");
        Replica {
            id,
            cfg,
            view: 0,
            in_view_change: false,
            target_view: 0,
            next_seq: 1,
            entries: BTreeMap::new(),
            last_delivered: 0,
            pending: VecDeque::new(),
            submitted: BTreeSet::new(),
            proposed_this_view: BTreeMap::new(),
            delivered_digests: BTreeSet::new(),
            ticks_waiting: 0,
            timeout_shift: 0,
            view_change_votes: BTreeMap::new(),
            journal: Vec::new(),
        }
    }

    /// Drains the durable facts accumulated since the last drain. The
    /// embedding must persist them before releasing the protocol messages
    /// produced by the same call (write-ahead discipline).
    pub fn take_journal(&mut self) -> Vec<JournalRecord<P>> {
        std::mem::take(&mut self.journal)
    }

    /// Restores the view number from a journal (`View` records replay
    /// through here; the highest wins).
    pub fn restore_view(&mut self, view: View) {
        if view > self.view {
            self.view = view;
            self.target_view = self.target_view.max(view);
        }
    }

    /// Restores a pre-crash slot binding (an `Accepted` journal record).
    /// The entry keeps the binding so [`Replica::handle`] refuses a
    /// conflicting pre-prepare for the same `(view, seq)` after restart —
    /// the replica cannot equivocate against its own earlier prepare vote.
    /// No votes are re-broadcast; live traffic re-accumulates them.
    pub fn restore_accepted(&mut self, view: View, seq: Seq, slot: Slot<P>) {
        let digest = slot.digest();
        let e = self.entry(seq);
        if e.digest.is_some() && e.view >= view {
            return;
        }
        e.view = view;
        e.digest = Some(digest);
        e.slot = Some(slot);
        e.prepared = false;
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Restores a pre-crash prepared certificate (a `Prepared` journal
    /// record): the entry can commit again without re-collecting prepares.
    pub fn restore_prepared(&mut self, view: View, seq: Seq, digest: Digest) {
        let me = self.id;
        let e = self.entry(seq);
        if e.digest == Some(digest) && e.view == view {
            e.prepared = true;
            e.certificate = e.slot.clone().map(|slot| (view, slot));
            e.commit_votes.entry((view, digest)).or_default().insert(me);
        }
    }

    /// Fast-forwards the delivery frontier past payloads known (from the
    /// WAL or a peer snapshot transfer) to have been delivered. Sequence
    /// gaps below the frontier (noop fillers, or duplicates suppressed by
    /// execution-layer dedup) are marked consumed so delivery stays
    /// contiguous.
    pub fn fast_forward<I: IntoIterator<Item = (Seq, P)>>(&mut self, delivered: I) {
        for (seq, payload) in delivered {
            let digest = payload.digest();
            let e = self.entry(seq);
            e.digest = Some(digest);
            e.slot = Some(Slot::Payload(payload));
            e.prepared = true;
            e.committed = true;
            e.delivered = true;
            self.delivered_digests.insert(digest);
            self.pending.retain(|(d, _)| *d != digest);
            self.submitted.remove(&digest);
            self.last_delivered = self.last_delivered.max(seq);
        }
        for seq in 1..=self.last_delivered {
            let e = self.entry(seq);
            if !e.delivered {
                e.prepared = true;
                e.committed = true;
                e.delivered = true;
                if e.slot.is_none() {
                    e.slot = Some(Slot::Noop);
                    e.digest = Some(Slot::<P>::Noop.digest());
                }
            }
        }
        self.next_seq = self.next_seq.max(self.last_delivered + 1);
    }

    /// Re-derives the journal records a compacting snapshot must carry:
    /// the current view plus the binding (and certificate, if prepared) of
    /// every *undelivered* entry. Delivered entries are represented by the
    /// snapshot's own delivery records and [`Replica::fast_forward`].
    pub fn journal_snapshot(&self) -> Vec<JournalRecord<P>> {
        let mut out = vec![JournalRecord::View(self.view)];
        for (&seq, e) in &self.entries {
            if e.delivered {
                continue;
            }
            let (Some(digest), Some(slot)) = (e.digest, e.slot.clone()) else {
                continue;
            };
            // A certificate older than the binding replays first, as it
            // was journaled: its binding, then the certificate.
            if let Some((view, slot)) = e.certificate.as_ref().filter(|(v, _)| *v != e.view) {
                let (view, slot, digest) = (*view, slot.clone(), slot.digest());
                out.push(JournalRecord::Accepted { view, seq, slot });
                out.push(JournalRecord::Prepared { view, seq, digest });
            }
            out.push(JournalRecord::Accepted {
                view: e.view,
                seq,
                slot,
            });
            if e.prepared {
                out.push(JournalRecord::Prepared {
                    view: e.view,
                    seq,
                    digest,
                });
            }
        }
        out
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// `true` iff this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.cfg.primary(self.view) == self.id && !self.in_view_change
    }

    /// Submitted payloads not yet delivered locally (liveness diagnostics).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Submits a payload for total ordering (replicas are their own
    /// clients in the Cicero control plane).
    ///
    /// The request is broadcast to *all* replicas (as a PBFT client would):
    /// the primary proposes it, and every backup tracks it in its pending
    /// set so that a faulty primary makes the whole group — not just the
    /// submitter — time out and change views.
    ///
    /// Submitting again a request this replica submitted before and has not
    /// delivered is its client retransmitting: the `Forward` may have been
    /// lost on the way to the primary, so it is broadcast again, and a
    /// primary proposes it again (re-sending the binding it already made).
    /// A request first heard of in another replica's `Forward` is that
    /// replica's to re-send.
    pub fn submit(&mut self, payload: P) -> Vec<Output<P>> {
        let digest = payload.digest();
        if self.delivered_digests.contains(&digest) {
            return Vec::new();
        }
        let pending = self.pending.iter().any(|(d, _)| *d == digest);
        let again = !self.submitted.insert(digest);
        if pending && !again {
            return Vec::new();
        }
        if !pending {
            self.pending.push_back((digest, payload.clone()));
        }
        let mut out = vec![Output::Broadcast(BftMessage::Forward {
            payload: payload.clone(),
        })];
        if self.is_primary() {
            out.extend(self.propose(payload));
        }
        out
    }

    fn propose(&mut self, payload: P) -> Vec<Output<P>> {
        let digest = payload.digest();
        if self.delivered_digests.contains(&digest) {
            return Vec::new();
        }
        if let Some(&seq) = self.proposed_this_view.get(&digest) {
            // Already proposed in this view: re-broadcast the binding so
            // backups that entered the view after the original pre-prepare
            // (and dropped it) still receive it.
            if let Some(e) = self.entries.get(&seq) {
                if e.view == self.view && !e.committed {
                    if let Some(slot) = e.slot.clone() {
                        return vec![Output::Broadcast(BftMessage::PrePrepare {
                            view: self.view,
                            seq,
                            slot,
                        })];
                    }
                }
            }
            return Vec::new();
        }
        self.proposed_this_view.insert(digest, self.next_seq);
        let seq = self.next_seq;
        self.next_seq += 1;
        let view = self.view;
        let slot = Slot::Payload(payload);
        let mut out = vec![Output::Broadcast(BftMessage::PrePrepare {
            view,
            seq,
            slot: slot.clone(),
        })];
        out.extend(self.accept_preprepare(view, seq, slot));
        out
    }

    fn entry(&mut self, seq: Seq) -> &mut Entry<P> {
        self.entries.entry(seq).or_default()
    }

    /// Registers the pre-prepare locally (both at the primary and at
    /// backups) and casts the implicit/explicit prepare votes.
    fn accept_preprepare(&mut self, view: View, seq: Seq, slot: Slot<P>) -> Vec<Output<P>> {
        let digest = slot.digest();
        let primary = self.cfg.primary(view);
        let me = self.id;
        let mut bound = false;
        {
            let e = self.entry(seq);
            if e.committed {
                // Already committed here (and possibly delivered). Re-cast
                // our votes in the proposing view anyway: a replica that
                // missed the original round can only commit the re-proposal
                // if the up-to-date majority participates again. Delivery
                // is idempotent (`check_committed` skips committed
                // entries), so this is pure catch-up bandwidth.
                if e.digest == Some(digest) {
                    let mut out = Vec::new();
                    if me != primary {
                        out.push(Output::Broadcast(BftMessage::Prepare {
                            view,
                            seq,
                            digest,
                        }));
                    }
                    out.push(Output::Broadcast(BftMessage::Commit { view, seq, digest }));
                    return out;
                }
                return Vec::new();
            }
            if e.digest == Some(digest) && e.view == view {
                // Duplicate pre-prepare; votes below are idempotent.
            } else if e.digest.is_some() && e.view == view {
                // Equivocation within a view: refuse the second binding.
                return Vec::new();
            } else {
                e.view = view;
                e.digest = Some(digest);
                e.slot = Some(slot);
                e.prepared = false;
                bound = true;
            }
            // The pre-prepare is the primary's prepare vote; ours follows.
            let votes = e.prepare_votes.entry((view, digest)).or_default();
            votes.insert(primary);
            votes.insert(me);
        }
        if bound {
            self.journal.push(JournalRecord::Accepted {
                view,
                seq,
                slot: self.entries[&seq].slot.clone().expect("just bound"),
            });
        }
        if let Slot::Payload(p) = self.entries[&seq].slot.as_ref().expect("just set") {
            let d = p.digest();
            self.proposed_this_view.insert(d, seq);
        }
        let mut out = Vec::new();
        if me != primary {
            out.push(Output::Broadcast(BftMessage::Prepare { view, seq, digest }));
        }
        out.extend(self.check_prepared(seq));
        out
    }

    fn check_prepared(&mut self, seq: Seq) -> Vec<Output<P>> {
        let quorum = self.cfg.quorum();
        let me = self.id;
        let (view, digest) = {
            let Some(e) = self.entries.get_mut(&seq) else {
                return Vec::new();
            };
            let (Some(digest), false) = (e.digest, e.prepared) else {
                return Vec::new();
            };
            let view = e.view;
            let votes = e
                .prepare_votes
                .get(&(view, digest))
                .map(|v| v.len())
                .unwrap_or(0);
            if votes < quorum {
                return Vec::new();
            }
            e.prepared = true;
            e.certificate = e.slot.clone().map(|slot| (view, slot));
            e.commit_votes.entry((view, digest)).or_default().insert(me);
            (view, digest)
        };
        self.journal.push(JournalRecord::Prepared { view, seq, digest });
        let mut out = vec![Output::Broadcast(BftMessage::Commit { view, seq, digest })];
        out.extend(self.check_committed(seq));
        out
    }

    /// A quorum's commit votes on a slot this replica has bound decide it.
    /// In view, the replica must also have prepared it (PBFT's
    /// committed-local). Out of it — having voted to leave the view — it
    /// casts no vote there any more, but still learns a decision from the
    /// votes alone: a quorum of commits means `f + 1` correct replicas
    /// prepared the slot, so it is committed whatever this replica saw.
    fn check_committed(&mut self, seq: Seq) -> Vec<Output<P>> {
        let quorum = self.cfg.quorum();
        let learning = self.in_view_change;
        {
            let Some(e) = self.entries.get_mut(&seq) else {
                return Vec::new();
            };
            if e.committed || !(e.prepared || learning) {
                return Vec::new();
            }
            let (Some(digest), view) = (e.digest, e.view) else {
                return Vec::new();
            };
            let votes = e
                .commit_votes
                .get(&(view, digest))
                .map(|v| v.len())
                .unwrap_or(0);
            if votes < quorum {
                return Vec::new();
            }
            e.committed = true;
        }
        self.try_deliver()
    }

    fn try_deliver(&mut self) -> Vec<Output<P>> {
        let mut out = Vec::new();
        loop {
            let next = self.last_delivered + 1;
            let Some(e) = self.entries.get_mut(&next) else {
                break;
            };
            if !e.committed || e.delivered {
                break;
            }
            e.delivered = true;
            let slot = e.slot.clone().expect("committed entries carry slots");
            self.last_delivered = next;
            self.ticks_waiting = 0;
            self.timeout_shift = 0;
            if let Slot::Payload(payload) = slot {
                let digest = payload.digest();
                self.pending.retain(|(d, _)| *d != digest);
                self.submitted.remove(&digest);
                // Execution-layer dedup (as in PBFT): a request re-proposed
                // across views may commit at two sequence numbers; only its
                // first occurrence is delivered.
                if self.delivered_digests.insert(digest) {
                    out.push(Output::Deliver(next, payload));
                }
            }
        }
        out
    }

    /// Handles a protocol message from `from`.
    pub fn handle(&mut self, from: ReplicaId, msg: BftMessage<P>) -> Vec<Output<P>> {
        match msg {
            BftMessage::Forward { payload } => {
                let digest = payload.digest();
                if !self.delivered_digests.contains(&digest)
                    && !self.pending.iter().any(|(d, _)| *d == digest)
                {
                    self.pending.push_back((digest, payload.clone()));
                }
                if self.is_primary() {
                    self.propose(payload)
                } else {
                    Vec::new()
                }
            }
            BftMessage::PrePrepare { view, seq, slot } => {
                if view != self.view || self.in_view_change || from != self.cfg.primary(view) {
                    return Vec::new();
                }
                self.accept_preprepare(view, seq, slot)
            }
            BftMessage::Prepare { view, seq, digest } => {
                if view != self.view || self.in_view_change {
                    return Vec::new();
                }
                self.entry(seq)
                    .prepare_votes
                    .entry((view, digest))
                    .or_default()
                    .insert(from);
                self.check_prepared(seq)
            }
            BftMessage::Commit { view, seq, digest } => {
                // Counted during a view change too: a replica whose timer
                // fired alone, a view change nobody joins, still delivers
                // what the rest of the view commits.
                if view != self.view {
                    return Vec::new();
                }
                self.entry(seq)
                    .commit_votes
                    .entry((view, digest))
                    .or_default()
                    .insert(from);
                self.check_committed(seq)
            }
            BftMessage::ViewChange {
                new_view,
                prepared,
                last_delivered,
            } => self.handle_view_change(from, new_view, prepared, last_delivered),
            BftMessage::NewView {
                view,
                voters,
                reproposals,
            } => self.handle_new_view(from, view, voters, reproposals),
        }
    }

    /// Progress clock: the embedding calls this on a fixed cadence; after
    /// the current view timeout without delivery progress while work is
    /// pending, the replica votes to change views. Consecutive timeouts
    /// without any delivery in between double the timeout (capped at 32x,
    /// reset on progress), as in PBFT: a load burst that briefly outlives
    /// one timeout must not snowball into a view-change storm whose own
    /// cost keeps the next timeout firing.
    pub fn on_tick(&mut self) -> Vec<Output<P>> {
        // Liveness signals: our own undelivered submissions, or a committed
        // slot stuck behind a gap. (A merely *prepared* foreign entry is the
        // submitter's liveness problem, not ours — avoids spurious view
        // changes on stale entries.)
        let gap = self
            .entries
            .range(self.last_delivered + 1..)
            .any(|(_, e)| e.committed && !e.delivered);
        let waiting = !self.pending.is_empty() || gap;
        if !waiting {
            self.ticks_waiting = 0;
            return Vec::new();
        }
        self.ticks_waiting += 1;
        let timeout = VIEW_TIMEOUT_TICKS.saturating_mul(1 << self.timeout_shift.min(5));
        if self.ticks_waiting <= timeout {
            return Vec::new();
        }
        self.ticks_waiting = 0;
        self.timeout_shift = self.timeout_shift.saturating_add(1);
        let next = self.target_view.max(self.view) + 1;
        self.vote_view_change(next)
    }

    fn prepared_certificates(&self) -> Vec<Prepared<P>> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.delivered)
            .filter_map(|(&seq, e)| {
                let (view, slot) = e.certificate.clone()?;
                Some(Prepared {
                    view,
                    seq,
                    digest: slot.digest(),
                    slot,
                })
            })
            .collect()
    }

    fn vote_view_change(&mut self, new_view: View) -> Vec<Output<P>> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.in_view_change = true;
        self.target_view = new_view;
        let prepared = self.prepared_certificates();
        self.view_change_votes
            .entry(new_view)
            .or_default()
            .insert(self.id, (self.last_delivered, prepared.clone()));
        let mut out = vec![Output::Broadcast(BftMessage::ViewChange {
            new_view,
            prepared,
            last_delivered: self.last_delivered,
        })];
        out.extend(self.maybe_install_view(new_view));
        out
    }

    fn handle_view_change(
        &mut self,
        from: ReplicaId,
        new_view: View,
        prepared: Vec<Prepared<P>>,
        last_delivered: Seq,
    ) -> Vec<Output<P>> {
        if new_view <= self.view {
            return Vec::new();
        }
        self.view_change_votes
            .entry(new_view)
            .or_default()
            .insert(from, (last_delivered, prepared));
        let mut out = Vec::new();
        // Join rule: seeing f+1 votes for a higher view, join it (liveness
        // when the timeout hasn't fired locally yet).
        let votes = self.view_change_votes[&new_view].len();
        let joined = self.view_change_votes[&new_view].contains_key(&self.id);
        if !joined && votes > self.cfg.f() as usize && new_view > self.target_view {
            out.extend(self.vote_view_change(new_view));
        }
        out.extend(self.maybe_install_view(new_view));
        out
    }

    /// Common view-entry bookkeeping.
    fn enter_view(&mut self, view: View) {
        self.journal.push(JournalRecord::View(view));
        self.view = view;
        self.in_view_change = false;
        self.ticks_waiting = 0;
        self.proposed_this_view.clear();
        self.view_change_votes = self.view_change_votes.split_off(&(view + 1));
    }

    fn maybe_install_view(&mut self, new_view: View) -> Vec<Output<P>> {
        if self.cfg.primary(new_view) != self.id || new_view <= self.view {
            return Vec::new();
        }
        let Some(votes) = self.view_change_votes.get(&new_view) else {
            return Vec::new();
        };
        if votes.len() < self.cfg.quorum() {
            return Vec::new();
        }
        // Re-proposals must start at the *quorum minimum* delivery
        // frontier, not our own: a backup whose log fell behind under loss
        // can only close its gaps if the slots the rest already delivered
        // are run through the new view again (our committed entries are
        // re-shipped verbatim; replicas that delivered them ignore the
        // duplicates).
        let floor = votes
            .values()
            .map(|(ld, _)| *ld)
            .min()
            .unwrap_or(self.last_delivered)
            .min(self.last_delivered);
        // Adopt, per sequence number, the prepared certificate with the
        // highest view among the quorum's reports; fill gaps with noops.
        let mut adopt: BTreeMap<Seq, Prepared<P>> = BTreeMap::new();
        for (_, certs) in votes.values() {
            for c in certs {
                if c.seq <= floor {
                    continue;
                }
                let better = adopt
                    .get(&c.seq)
                    .map(|prev| c.view > prev.view)
                    .unwrap_or(true);
                if better {
                    adopt.insert(c.seq, c.clone());
                }
            }
        }
        let voters: Vec<ReplicaId> = votes.keys().copied().collect();
        let max_seq = adopt
            .keys()
            .next_back()
            .copied()
            .unwrap_or(floor)
            .max(self.last_delivered);
        let mut reproposals: Vec<(Seq, Slot<P>)> = Vec::new();
        for seq in floor + 1..=max_seq {
            // Our own committed slot is authoritative for anything we
            // already delivered (commitment implies a quorum agreed on it
            // in an earlier view); prepared certificates cover the rest.
            let committed = self
                .entries
                .get(&seq)
                .filter(|e| e.committed)
                .and_then(|e| e.slot.clone());
            let slot = committed
                .or_else(|| adopt.get(&seq).map(|c| c.slot.clone()))
                .unwrap_or(Slot::Noop);
            reproposals.push((seq, slot));
        }

        // Enter the view as its primary.
        self.enter_view(new_view);
        self.next_seq = max_seq + 1;

        let mut out = vec![Output::Broadcast(BftMessage::NewView {
            view: new_view,
            voters,
            reproposals: reproposals.clone(),
        })];
        for (seq, slot) in reproposals {
            out.extend(self.accept_preprepare(new_view, seq, slot));
        }
        // Re-propose our own pending requests in the new view.
        let pending: Vec<P> = self.pending.iter().map(|(_, p)| p.clone()).collect();
        for p in pending {
            out.extend(self.propose(p));
        }
        out
    }

    fn handle_new_view(
        &mut self,
        from: ReplicaId,
        view: View,
        voters: Vec<ReplicaId>,
        reproposals: Vec<(Seq, Slot<P>)>,
    ) -> Vec<Output<P>> {
        if view <= self.view || from != self.cfg.primary(view) {
            return Vec::new();
        }
        if voters.len() < self.cfg.quorum() {
            return Vec::new();
        }
        self.enter_view(view);
        let mut out = Vec::new();
        for (seq, slot) in reproposals {
            out.extend(self.accept_preprepare(view, seq, slot));
        }
        // Re-forward pending requests to the new primary (it de-duplicates
        // against its own re-proposals by digest).
        let primary = self.cfg.primary(view);
        for (_, payload) in self.pending.iter() {
            out.push(Output::Send(
                primary,
                BftMessage::Forward {
                    payload: payload.clone(),
                },
            ));
        }
        out
    }
}
