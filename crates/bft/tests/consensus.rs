//! End-to-end consensus tests: total order under benign runs, crashed
//! primaries, Byzantine equivocation, and randomized message schedules.

use bft::prelude::*;
use bft::replica::JournalRecord;
use std::collections::BTreeSet;
use substrate::rng::StdRng;
use substrate::rng::{Rng as _, SeedableRng};

/// In-memory network driving a replica group with controllable scheduling.
struct TestNet {
    replicas: Vec<Replica<u64>>,
    crashed: BTreeSet<u32>,
    queue: Vec<(ReplicaId, ReplicaId, BftMessage<u64>)>,
    delivered: Vec<Vec<(Seq, u64)>>,
}

impl TestNet {
    fn new(n: u32) -> Self {
        let cfg = BftConfig::new(n);
        TestNet {
            replicas: (0..n).map(|i| Replica::new(ReplicaId(i), cfg)).collect(),
            crashed: BTreeSet::new(),
            queue: Vec::new(),
            delivered: vec![Vec::new(); n as usize],
        }
    }

    fn crash(&mut self, id: u32) {
        self.crashed.insert(id);
    }

    fn apply(&mut self, at: ReplicaId, outputs: Vec<Output<u64>>) {
        for out in outputs {
            match out {
                Output::Send(to, msg) => self.queue.push((at, to, msg)),
                Output::Broadcast(msg) => {
                    for i in 0..self.replicas.len() as u32 {
                        if i != at.0 {
                            self.queue.push((at, ReplicaId(i), msg.clone()));
                        }
                    }
                }
                Output::Deliver(seq, p) => self.delivered[at.0 as usize].push((seq, p)),
            }
        }
    }

    fn submit(&mut self, at: u32, payload: u64) {
        if self.crashed.contains(&at) {
            return;
        }
        let outs = self.replicas[at as usize].submit(payload);
        self.apply(ReplicaId(at), outs);
    }

    /// Processes messages; `rng` (if given) picks random delivery order.
    fn drain(&mut self, rng: &mut Option<&mut StdRng>) {
        let mut idle_rounds = 0;
        while idle_rounds < 20 {
            if self.queue.is_empty() {
                // Everyone's progress clock ticks while idle on the wire.
                for i in 0..self.replicas.len() as u32 {
                    if self.crashed.contains(&i) {
                        continue;
                    }
                    let outs = self.replicas[i as usize].on_tick();
                    self.apply(ReplicaId(i), outs);
                }
                idle_rounds += 1;
                continue;
            }
            idle_rounds = 0;
            let idx = match rng {
                Some(r) => r.random_range(0..self.queue.len()),
                None => 0,
            };
            let (from, to, msg) = self.queue.swap_remove(idx);
            if self.crashed.contains(&to.0) || self.crashed.contains(&from.0) {
                continue;
            }
            let outs = self.replicas[to.0 as usize].handle(from, msg);
            self.apply(to, outs);
        }
    }

    /// Asserts all correct replicas delivered the same ordered sequence and
    /// returns it.
    fn assert_agreement(&self) -> Vec<u64> {
        let mut reference: Option<&Vec<(Seq, u64)>> = None;
        for (i, log) in self.delivered.iter().enumerate() {
            if self.crashed.contains(&(i as u32)) {
                continue;
            }
            // Sequence numbers strictly increase (noop slots and deduped
            // re-proposals may leave gaps).
            for w in log.windows(2) {
                assert!(w[0].0 < w[1].0, "replica {i} delivered out of order");
            }
            match reference {
                None => reference = Some(log),
                Some(r) => assert_eq!(r, log, "replica {i} disagrees"),
            }
        }
        reference
            .expect("at least one correct replica")
            .iter()
            .map(|&(_, p)| p)
            .collect()
    }
}

#[test]
fn benign_total_order() {
    let mut net = TestNet::new(4);
    // Submissions arrive at different replicas.
    for (replica, payload) in [(0, 100), (1, 200), (2, 300), (3, 400), (0, 500)] {
        net.submit(replica, payload);
    }
    net.drain(&mut None);
    let order = net.assert_agreement();
    assert_eq!(order.len(), 5);
    let set: BTreeSet<u64> = order.iter().copied().collect();
    assert_eq!(set, BTreeSet::from([100, 200, 300, 400, 500]));
}

#[test]
fn duplicate_submissions_deliver_once() {
    let mut net = TestNet::new(4);
    net.submit(1, 7);
    net.submit(2, 7);
    net.submit(0, 7);
    net.drain(&mut None);
    let order = net.assert_agreement();
    assert_eq!(order, vec![7]);
}

#[test]
fn crashed_backup_does_not_block() {
    let mut net = TestNet::new(4);
    net.crash(3);
    for p in [1, 2, 3, 4, 5, 6] {
        net.submit(0, p * 11);
    }
    net.drain(&mut None);
    let order = net.assert_agreement();
    assert_eq!(order.len(), 6);
}

#[test]
fn crashed_primary_triggers_view_change() {
    let mut net = TestNet::new(4);
    net.crash(0); // primary of view 0
    net.submit(1, 42);
    net.submit(2, 43);
    net.drain(&mut None);
    let order = net.assert_agreement();
    assert_eq!(
        order.iter().copied().collect::<BTreeSet<_>>(),
        BTreeSet::from([42, 43])
    );
    // Correct replicas moved past view 0.
    assert!(net.replicas[1].view() > 0);
}

#[test]
fn primary_crash_after_partial_prepare_preserves_entry() {
    // The primary pre-prepares to everyone, some replicas prepare, then the
    // primary dies. The prepared certificate must survive into the new view.
    let mut net = TestNet::new(4);
    net.submit(0, 77);
    // Let exactly the pre-prepare + a few prepares out, then crash.
    for _ in 0..6 {
        if net.queue.is_empty() {
            break;
        }
        let (from, to, msg) = net.queue.remove(0);
        if !net.crashed.contains(&to.0) {
            let outs = net.replicas[to.0 as usize].handle(from, msg);
            net.apply(to, outs);
        }
    }
    net.crash(0);
    net.drain(&mut None);
    let order = net.assert_agreement();
    assert_eq!(order, vec![77], "prepared entry must not be lost");
}

/// A prepared certificate belongs to `(view, seq, digest)`, not to the slot's
/// current binding: a backup that prepared in view 0, saw the same payload
/// re-proposed in view 1 and never prepared it there must still report the
/// view-0 certificate when it votes for view 2 — another replica may have
/// committed on it, and a new primary that hears of no certificate fills the
/// slot with a no-op.
#[test]
fn a_reproposal_that_fails_to_prepare_keeps_the_older_certificate() {
    let mut r = Replica::<u64>::new(ReplicaId(3), BftConfig::new(4));
    let (payload, seq) = (7u64, 1);
    let (slot, digest) = (Slot::Payload(payload), payload.digest());
    // Its own pending request keeps the progress clock running.
    r.submit(payload);
    // View 0: pre-prepare (primary's vote + ours) and one more prepare.
    r.handle(ReplicaId(0), BftMessage::PrePrepare { view: 0, seq, slot: slot.clone() });
    let outs = r.handle(ReplicaId(1), BftMessage::Prepare { view: 0, seq, digest });
    assert!(
        outs.contains(&Output::Broadcast(BftMessage::Commit { view: 0, seq, digest })),
        "prepared in view 0"
    );
    // View 1 re-proposes the slot; nobody else prepares it there.
    let voters = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
    let reproposals = vec![(seq, slot.clone())];
    r.handle(ReplicaId(1), BftMessage::NewView { view: 1, voters, reproposals });
    assert_eq!(r.view(), 1);
    // So does a replica restored from this one's compacted journal.
    let mut restored = Replica::<u64>::new(ReplicaId(3), BftConfig::new(4));
    for record in r.journal_snapshot() {
        match record {
            JournalRecord::View(view) => restored.restore_view(view),
            JournalRecord::Accepted { view, seq, slot } => restored.restore_accepted(view, seq, slot),
            JournalRecord::Prepared { view, seq, digest } => restored.restore_prepared(view, seq, digest),
        }
    }
    restored.submit(payload);
    // The view times out: the vote for view 2 carries the view-0 certificate.
    for mut r in [r, restored] {
        let vote = (0..1000).flat_map(|_| r.on_tick()).find_map(|out| match out {
            Output::Broadcast(BftMessage::ViewChange { new_view: 2, prepared, .. }) => Some(prepared),
            _ => None,
        });
        assert_eq!(vote, Some(vec![Prepared { view: 0, seq, digest, slot: slot.clone() }]));
    }
}

#[test]
fn equivocating_primary_cannot_split_the_group() {
    // A Byzantine primary sends conflicting pre-prepares for seq 1.
    let mut net = TestNet::new(4);
    let evil = ReplicaId(0);
    for (target, payload) in [(1u32, 1000u64), (2, 2000), (3, 1000)] {
        net.queue.push((
            evil,
            ReplicaId(target),
            BftMessage::PrePrepare {
                view: 0,
                seq: 1,
                slot: Slot::Payload(payload),
            },
        ));
    }
    // The honest replicas also want a real payload ordered.
    net.submit(1, 5);
    net.crash(0); // the Byzantine primary stays silent from here on
    net.drain(&mut None);
    let order = net.assert_agreement();
    // Safety: never both conflicting payloads; the honest payload arrives.
    assert!(order.contains(&5));
    assert!(!(order.contains(&1000) && order.contains(&2000)));
}

#[test]
fn repeated_view_changes_until_honest_primary() {
    let mut net = TestNet::new(7); // f = 2
    net.crash(0);
    net.crash(1); // primaries of views 0 and 1 both dead
    net.submit(2, 99);
    net.drain(&mut None);
    let order = net.assert_agreement();
    assert_eq!(order, vec![99]);
    assert!(net.replicas[2].view() >= 2);
}

#[test]
fn high_load_total_order() {
    let mut net = TestNet::new(4);
    for i in 0..100u64 {
        net.submit((i % 4) as u32, 1_000 + i);
    }
    net.drain(&mut None);
    let order = net.assert_agreement();
    assert_eq!(order.len(), 100);
}

#[test]
fn random_schedules_preserve_agreement() {
    substrate::forall!(cases = 24, |g| {
        let seed = g.u64();
        let n_msgs = g.usize_in(1..20);
        let crash_one = g.bool();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = TestNet::new(4);
        if crash_one {
            // Crash a random replica (possibly the primary).
            let victim = rng.random_range(0..4u32);
            net.crash(victim);
        }
        for i in 0..n_msgs {
            let submitter = rng.random_range(0..4u32);
            net.submit(submitter, 10_000 + i as u64);
        }
        let mut r = Some(&mut rng);
        net.drain(&mut r);
        let order = net.assert_agreement();
        // With at most one crash, every payload submitted at a correct
        // replica must be delivered.
        let submitted_at_correct = n_msgs; // submit() ignores crashed nodes
        assert!(order.len() <= submitted_at_correct);
        // No duplicates ever.
        let set: BTreeSet<u64> = order.iter().copied().collect();
        assert_eq!(set.len(), order.len());
    });
}
