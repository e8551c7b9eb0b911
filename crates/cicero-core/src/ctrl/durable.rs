//! Durable controller state: write-ahead logging, crash recovery, and
//! snapshot state sync.
//!
//! Every externally meaningful state transition — a consensus slot accepted
//! or prepared, an ordered op delivered, a switch ack verified, a
//! cross-domain barrier signer counted — is appended to a per-controller
//! WAL (checksummed frames over a pluggable [`Disk`](substrate::storage::Disk))
//! before the transition's outputs leave the actor. On restart the snapshot
//! plus WAL tail replays through the **real** handlers against a scratch
//! [`Context`] — same time, identity and randomness as the live one — whose
//! effects are dropped: derived state (routing app, pending-update graph,
//! barrier handshake, replica bindings) is reconstructed without re-emitting
//! a single message. The retry layer then re-transmits whatever was genuinely
//! in flight — idempotent at the switches, which de-duplicate by update id
//! and re-ack duplicates.
//!
//! Snapshots are *compacted logs in the same record alphabet*, written
//! atomically at quiescent points and followed by a WAL truncate, and a
//! peer's state-sync answer is the same compaction sent over the wire;
//! recovery therefore has exactly one replay path
//! ([`ControllerActor::replay`]) for WAL tail, snapshot and state sync. A
//! crash between snapshot write and truncate replays some records twice,
//! which is safe: every replay step is idempotent (delivery frontier,
//! `seen_events`, acked sets, signer sets).
//!
//! Known limitation (DESIGN.md §3c, "a crash across a reshare"): membership
//! phase-changes are not re-run during muted replay — the ops are archived
//! for state sync, but a controller that crashes mid-reshare rejoins with
//! its pre-change key material. Crash-recovery scenarios therefore assume a
//! stable membership, which is what the simcheck generator enforces.

use super::ControllerActor;
use crate::msg::{Net, OrderedOp, WalRecord};
use crate::obs::Obs;
use bft::message::Slot;
use bft::replica::JournalRecord;
use simnet::node::{Context, Host};
use southbound::codec::Wire;
use southbound::types::ControllerId;
use substrate::storage::{read_snapshot, write_snapshot, DiskHandle, Wal};

/// WAL file name on the controller's disk.
const WAL_FILE: &str = "wal";
/// Snapshot file name on the controller's disk.
const SNAP_FILE: &str = "snapshot";
/// WAL records accumulated before the next quiescent point compacts them
/// into a snapshot.
const SNAPSHOT_EVERY: usize = 64;
/// Ticks between `SyncRequest` re-broadcasts while recovering (the first
/// request or its replies may be lost). Recovery keeps the tick armed, so
/// this is 200 ms at its 5 ms period.
const SYNC_RESEND_TICKS: u32 = 40;

fn journal_to_record(j: JournalRecord<OrderedOp>) -> WalRecord {
    match j {
        JournalRecord::View(v) => WalRecord::BftView(v),
        JournalRecord::Accepted { view, seq, slot } => WalRecord::BftAccepted {
            view,
            seq,
            op: match slot {
                Slot::Payload(p) => Some(p),
                Slot::Noop => None,
            },
        },
        JournalRecord::Prepared { view, seq, digest } => {
            WalRecord::BftPrepared { view, seq, digest }
        }
    }
}

impl ControllerActor {
    /// Attaches durable storage. Opens (and torn-tail-repairs) the WAL and
    /// reads the snapshot; the recovered records replay on the next
    /// `on_start`. With `recovering` set, the controller also withholds
    /// itself from consensus and requests a state-sync from its peers (the
    /// restart-after-crash path); a fresh boot finds both files empty and
    /// this is a no-op beyond arming the log.
    pub fn attach_disk(&mut self, disk: DiskHandle, recovering: bool) {
        let (wal, tail) = Wal::open(disk.clone(), WAL_FILE);
        let mut records = Vec::new();
        if let Some(snap) = read_snapshot(&disk, SNAP_FILE) {
            let mut buf = &snap[..];
            while !buf.is_empty() {
                match WalRecord::decode(&mut buf) {
                    Ok(r) => records.push(r),
                    // The snapshot frame checksum passed, so this is a
                    // version/corruption edge: keep the valid prefix.
                    Err(_) => break,
                }
            }
        }
        for frame in tail {
            if let Ok(r) = WalRecord::from_wire(&frame) {
                records.push(r);
            }
        }
        self.disk = Some(disk);
        self.recovered = records;
        self.recovering = recovering && self.active && self.uses_consensus();
        self.wal = Some(wal);
    }

    /// `true` while this controller is state-syncing after a restart.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Appends one record to the WAL (no-op without attached storage).
    pub(super) fn log_record(&mut self, rec: &WalRecord) {
        if let Some(w) = self.wal.as_mut() {
            w.append(&rec.to_wire());
            self.records_since_snapshot += 1;
        }
    }

    /// Logs and archives a consensus delivery (write-ahead: called before
    /// the op is acted on).
    pub(super) fn record_delivery(&mut self, seq: u64, op: &OrderedOp) {
        self.log_record(&WalRecord::Deliver {
            seq,
            op: op.clone(),
        });
        self.delivered_ops.push((seq, op.clone()));
    }

    /// Drains the replica's journal into the WAL. Must run before the
    /// outputs of the same replica call go on the wire (write-ahead
    /// discipline: a vote is persisted before anyone can observe it).
    pub(super) fn persist_journal(&mut self) {
        let Some(replica) = self.replica.as_mut() else {
            return;
        };
        let recs = replica.take_journal();
        if self.wal.is_none() {
            return;
        }
        for j in recs {
            let rec = journal_to_record(j);
            self.log_record(&rec);
        }
    }

    /// Highest archived consensus sequence (the state-sync frontier).
    fn delivered_frontier(&self) -> u64 {
        self.delivered_ops.last().map(|(s, _)| *s).unwrap_or(0)
    }

    /// The one interpreter of [`WalRecord`]s: replays `records` — the
    /// snapshot plus WAL tail recovered by [`ControllerActor::attach_disk`]
    /// (from `on_start`, before any timer is armed), or a peer's state-sync
    /// transfer — through the real handlers, muted: they run against a scratch
    /// [`Context`] with the live one's time, identity and randomness (so they
    /// make the same internal decisions), and what they send, arm and observe
    /// is dropped with it — the first life already did all that. With `log`
    /// every record is appended to the own WAL before it is acted on (peer
    /// records are not durable here yet; a second crash must replay them
    /// locally).
    pub(super) fn replay(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        records: Vec<WalRecord>,
        log: bool,
    ) {
        let mut delivered: Vec<(u64, OrderedOp)> = Vec::new();
        let mut mute = Context::new(ctx.now(), ctx.id(), ctx.rng());
        for rec in records {
            if matches!(rec, WalRecord::Deliver { seq, .. } if seq <= self.delivered_frontier()) {
                // Already archived (snapshot/WAL overlap, or a transfer
                // that starts below the frontier).
                continue;
            }
            if log {
                self.log_record(&rec);
            }
            match rec {
                WalRecord::Deliver { seq, op } => {
                    self.delivered_ops.push((seq, op.clone()));
                    delivered.push((seq, op.clone()));
                    match op {
                        OrderedOp::Event(e) => self.process_event(&mut mute, e),
                        // Membership replay is out of scope (see module
                        // doc): the op stays archived for state sync but
                        // the phase change is not re-run.
                        OrderedOp::AddController(_) | OrderedOp::RemoveController(_) => {}
                    }
                }
                WalRecord::Acked(id) => {
                    let now = mute.now();
                    // Ready updates released by the ack re-enter the
                    // in-flight set; the retry timer re-sends them after
                    // recovery (switch-side dedup absorbs duplicates).
                    let _ = self.pending.ack(id, now);
                    // A drained own segment's report is tagged again and kept
                    // for upstream controllers that still re-forward; a
                    // forward nothing waits for any more is retired.
                    self.settle(&mut mute, id);
                }
                WalRecord::BarrierSigner {
                    barrier,
                    domain,
                    controller,
                } => {
                    // The logged (or a peer's) signer facts spare the
                    // barrier a second round of re-forwarding for reports.
                    self.restore_barrier_signer(&mut mute, barrier, domain, controller);
                }
                WalRecord::BftView(v) => {
                    if let Some(r) = self.replica.as_mut() {
                        r.restore_view(v);
                    }
                }
                WalRecord::BftAccepted { view, seq, op } => {
                    if let Some(r) = self.replica.as_mut() {
                        let slot = op.map(Slot::Payload).unwrap_or(Slot::Noop);
                        r.restore_accepted(view, seq, slot);
                    }
                }
                WalRecord::BftPrepared { view, seq, digest } => {
                    if let Some(r) = self.replica.as_mut() {
                        r.restore_prepared(view, seq, digest);
                    }
                }
            }
        }
        // Muted replay set the armed flag without a live timer; the caller
        // re-arms with the real host.
        self.retry_armed = false;
        if let Some(r) = self.replica.as_mut() {
            r.fast_forward(delivered);
            // Journal records produced by restore calls are already durable.
            let _ = r.take_journal();
        }
    }

    /// Broadcasts a state-sync request to the domain peers (restart path).
    pub(super) fn send_sync_request(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        let have = self.delivered_frontier();
        for m in self.members() {
            if m != self.id {
                ctx.send(self.node_of(m), Net::SyncRequest { have });
            }
        }
    }

    /// Per-tick recovery duties: re-broadcast the sync request while no
    /// reply has arrived (the first one may have been lost).
    pub(super) fn tick_recovery(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        if !self.recovering {
            return;
        }
        self.sync_ticks += 1;
        if self.sync_ticks >= SYNC_RESEND_TICKS {
            self.sync_ticks = 0;
            self.send_sync_request(ctx);
        }
    }

    /// The log compacted into the record alphabet: every archived delivery
    /// past consensus sequence `after`, the ack archive, and every counted
    /// barrier signer. The snapshot body (plus the own BFT journal) and the
    /// state-sync answer alike.
    fn compacted_records(&self, after: u64) -> Vec<WalRecord> {
        let mut out: Vec<WalRecord> = self
            .delivered_ops
            .iter()
            .filter(|(s, _)| *s > after)
            .map(|(seq, op)| WalRecord::Deliver {
                seq: *seq,
                op: op.clone(),
            })
            .collect();
        out.extend(self.pending.acked_ids().map(WalRecord::Acked));
        out.extend(self.barrier_signer_records());
        out
    }

    /// Answers a restarted peer's state-sync request with the compacted
    /// log past its frontier.
    pub(super) fn on_sync_request(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: ControllerId,
        have: u64,
    ) {
        if !self.active || self.recovering || from == self.id {
            return;
        }
        let records = self.compacted_records(have);
        ctx.send(self.node_of(from), Net::SyncReply { records });
    }

    /// Completes recovery from the first peer snapshot transfer: the
    /// transfer is WAL-logged and muted-replayed like the own log — missing
    /// deliveries, then the peer's ack archive (without it a disk-lost
    /// restart would wait forever on acks nobody will re-send), then its
    /// barrier signers; finally the controller rejoins consensus and
    /// re-arms retransmission for everything the replay left in flight.
    pub(super) fn on_sync_reply(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: ControllerId,
        mut records: Vec<WalRecord>,
    ) {
        if !self.recovering {
            return;
        }
        // A peer's consensus votes are its own; only the compacted
        // alphabet is ever adopted from the wire.
        records.retain(|r| {
            matches!(
                r,
                WalRecord::Deliver { .. } | WalRecord::Acked(_) | WalRecord::BarrierSigner { .. }
            )
        });
        self.replay(ctx, records, true);
        self.recovering = false;
        self.arm_retry(ctx);
        ctx.observe(Obs::ControllerRecovered {
            domain: self.domain,
            controller: self.id.0,
            peer: from.0,
            frontier: self.delivered_frontier(),
        });
        // Events queued while syncing enter consensus now.
        let queued = std::mem::take(&mut self.queued_events);
        for e in queued {
            self.submit_op(ctx, OrderedOp::Event(e));
        }
    }

    /// `true` when no protocol work is in progress anywhere in this actor —
    /// the only points where a compacting snapshot equals the log.
    fn quiescent(&self) -> bool {
        self.pending.is_drained()
            && self.unprocessed.is_empty()
            && !self.auth.rekeying()
            && self
                .replica
                .as_ref()
                .map(|r| r.pending_len() == 0)
                .unwrap_or(true)
            && self.handshake_idle()
    }

    /// `true` once enough WAL records accumulated for a snapshot; the tick
    /// stays armed until [`Self::maybe_snapshot`] finds a quiescent point.
    pub(super) fn snapshot_due(&self) -> bool {
        self.wal.is_some() && self.records_since_snapshot >= SNAPSHOT_EVERY
    }

    /// Compacts the log into an atomic snapshot and truncates the WAL,
    /// when a snapshot is due and the actor is quiescent. Runs on every
    /// tick, and the tick runs while one is due.
    pub(super) fn maybe_snapshot(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        if !self.snapshot_due() || self.recovering || !self.quiescent() {
            return;
        }
        let mut buf = Vec::new();
        for rec in self.compacted_records(0) {
            rec.encode(&mut buf);
        }
        if let Some(r) = self.replica.as_ref() {
            for j in r.journal_snapshot() {
                journal_to_record(j).encode(&mut buf);
            }
        }
        let records = self.records_since_snapshot;
        let disk = self.disk.as_ref().expect("wal implies disk");
        write_snapshot(disk, SNAP_FILE, &buf);
        if let Some(w) = self.wal.as_mut() {
            w.truncate();
        }
        self.records_since_snapshot = 0;
        ctx.observe(Obs::SnapshotTaken {
            domain: self.domain,
            controller: self.id.0,
            compacted: records as u64,
        });
    }
}
