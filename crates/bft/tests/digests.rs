//! How often a replica hashes a payload, counted by a payload type whose
//! `digest()` bumps a counter shared by all its copies: once per payload it
//! holds, and never borrowed from a different payload.

use bft::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use substrate::rng::StdRng;
use substrate::rng::{Rng as _, SeedableRng};

/// A payload that counts the digests computed of it (all its clones share
/// the counter). Equality is the value's; the counter is bookkeeping.
#[derive(Clone, Debug)]
struct Counted {
    value: u64,
    hashes: Rc<Cell<u32>>,
}

impl Counted {
    fn new(value: u64) -> Self {
        Counted {
            value,
            hashes: Rc::new(Cell::new(0)),
        }
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl BftPayload for Counted {
    fn digest(&self) -> Digest {
        self.hashes.set(self.hashes.get() + 1);
        let mut d = [0u8; 32];
        d[..8].copy_from_slice(&self.value.to_be_bytes());
        d[31] = 0xd1;
        d
    }
}

/// Every replica submits `payload` at once, as every Cicero controller
/// submits the switch's event, and the group runs to quiescence with no
/// loss, taking messages in `rng`'s order (send order without one).
/// Returns how many digests of the payload each replica computed.
fn hashes_per_replica(n: u32, payload: &Counted, mut rng: Option<StdRng>) -> Vec<u32> {
    let cfg = BftConfig::new(n);
    let mut replicas: Vec<Replica<Counted>> =
        (0..n).map(|i| Replica::new(ReplicaId(i), cfg)).collect();
    let mut hashes = vec![0u32; n as usize];
    let mut delivered = vec![0u32; n as usize];
    let mut queue: Vec<(ReplicaId, ReplicaId, BftMessage<Counted>)> = Vec::new();
    let mut step =
        |at: ReplicaId,
         queue: &mut Vec<(ReplicaId, ReplicaId, BftMessage<Counted>)>,
         call: &mut dyn FnMut(&mut Replica<Counted>) -> Vec<Output<Counted>>| {
            let before = payload.hashes.get();
            let outs = call(&mut replicas[at.0 as usize]);
            hashes[at.0 as usize] += payload.hashes.get() - before;
            for out in outs {
                match out {
                    Output::Send(to, msg) => queue.push((at, to, msg)),
                    Output::Broadcast(msg) => queue.extend(
                        (0..n)
                            .filter(|&i| i != at.0)
                            .map(|i| (at, ReplicaId(i), msg.clone())),
                    ),
                    Output::Deliver(_, (digest, p)) => {
                        assert_eq!(p, *payload);
                        assert_eq!(
                            digest,
                            Counted::new(p.value).digest(),
                            "delivered with its own digest"
                        );
                        delivered[at.0 as usize] += 1;
                    }
                }
            }
        };
    for i in 0..n {
        step(ReplicaId(i), &mut queue, &mut |r| r.submit(payload.clone()));
    }
    while !queue.is_empty() {
        let idx = rng.as_mut().map_or(0, |r| r.random_range(0..queue.len()));
        let (from, to, msg) = queue.remove(idx);
        step(to, &mut queue, &mut |r| r.handle(from, msg.clone()));
    }
    assert_eq!(
        delivered,
        vec![1; n as usize],
        "every replica delivers the payload once"
    );
    hashes
}

/// Before a replica kept the digest beside the payload, this run computed
/// 11 digests at the primary and 13 at each backup with 4 replicas in send
/// order (17 and 22 with 7), and 9–13 (12–22) per replica under the random
/// schedules: one per `submit`, per `Forward` handled and per delivery,
/// one more per `Forward` the primary proposes from, and two per
/// pre-prepare handled.
#[test]
fn each_replica_hashes_a_payload_submitted_everywhere_at_most_once() {
    for n in [4u32, 7] {
        for schedule in 0..=16u64 {
            let rng = (schedule > 0).then(|| StdRng::seed_from_u64(schedule));
            let payload = Counted::new(42);
            let hashes = hashes_per_replica(n, &payload, rng);
            assert!(
                hashes.iter().all(|&h| h <= 1),
                "n = {n}, schedule {schedule}: digests per replica {hashes:?}"
            );
        }
    }
}

/// A payload is never given the digest of a different one it holds. Replica
/// 3 holds `p1` twice over — submitted (pending) and bound at sequence 1 in
/// view 0 — when view 1's primary re-proposes `p2` at sequence 1. It must
/// bind and prepare `p2` under `p2`'s own digest, and a prepare quorum on
/// `D(p1)` in view 1, then commits on it, must neither prepare nor deliver
/// `p2`.
#[test]
fn a_different_payload_at_a_held_slot_gets_its_own_digest() {
    let (p1, p2) = (Counted::new(1), Counted::new(2));
    let (d1, d2) = (Counted::new(1).digest(), Counted::new(2).digest());
    let mut r = Replica::<Counted>::new(ReplicaId(3), BftConfig::new(4));
    r.submit(p1.clone());
    r.handle(
        ReplicaId(0),
        BftMessage::PrePrepare {
            view: 0,
            seq: 1,
            slot: Slot::Payload(p1.clone()),
        },
    );
    let outs = r.handle(
        ReplicaId(1),
        BftMessage::NewView {
            view: 1,
            voters: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            reproposals: vec![(1, Slot::Payload(p2.clone()))],
        },
    );
    assert!(p2.hashes.get() >= 1, "p2 is hashed, not matched to p1");
    assert!(
        outs.contains(&Output::Broadcast(BftMessage::Prepare {
            view: 1,
            seq: 1,
            digest: d2
        })),
        "the prepare vote names p2's digest: {outs:?}"
    );
    let mut after = Vec::new();
    for from in [0, 1, 2] {
        after.extend(r.handle(
            ReplicaId(from),
            BftMessage::Prepare {
                view: 1,
                seq: 1,
                digest: d1,
            },
        ));
    }
    for from in [0, 1, 2] {
        after.extend(r.handle(
            ReplicaId(from),
            BftMessage::Commit {
                view: 1,
                seq: 1,
                digest: d1,
            },
        ));
    }
    assert!(
        !after.iter().any(|o| matches!(
            o,
            Output::Deliver(..) | Output::Broadcast(BftMessage::Commit { .. })
        )),
        "votes on D(p1) prepare or deliver nothing at a slot bound to p2: {after:?}"
    );
}
