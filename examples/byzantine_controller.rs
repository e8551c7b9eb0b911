//! Security against a Byzantine controller (paper §3.2).
//!
//! A compromised controller tries three attacks against a switch:
//!
//! 1. **Solo forgery** — it sends an update only it endorses. The switch
//!    never reaches a quorum of identical updates, so nothing is applied.
//! 2. **Fabricated quorum** — it invents partial signatures under other
//!    controllers' indices. Aggregation produces a signature that fails
//!    against the group public key; the individual partials are then
//!    verified, the culprits evicted, and the update rejected.
//! 3. **Replay under a stale phase** — a message tagged with an old
//!    membership phase is discarded outright.
//!
//! Run with: `cargo run --example byzantine_controller`

use blscrypto::bls::PartialSignature;
use blscrypto::curves::g1_generator;
use cicero::prelude::*;
use cicero_core::msg::{UpdateBody, UpdateSet};
use southbound::envelope::{MsgId, ShareSigned};
use southbound::merkle::TreeHash;

fn rogue_update(victim: SwitchId, seq: u32) -> UpdateBody {
    let update = NetworkUpdate {
        id: UpdateId {
            event: EventId(0xbad),
            seq,
        },
        switch: victim,
        kind: UpdateKind::Install(FlowRule {
            matcher: FlowMatch {
                src: HostId(0),
                dst: HostId(1),
            },
            // The attack: silently blackhole the pair.
            action: FlowAction::Deny,
        }),
    };
    UpdateBody {
        update,
        gates: Vec::new(),
        notify: Vec::new(),
        held: false,
    }
}

/// `body` as a set of one (real crypto: SHA-256 tree), with a share of it under `partial` — signed by
/// nobody's key share.
fn rogue_share(body: UpdateBody, phase: Phase, msg_id: MsgId, partial: PartialSignature) -> Net {
    let (set, mut members) = UpdateSet::of(TreeHash::Sha256, body.update.id.event, DomainId(0), vec![body]);
    let share = ShareSigned { payload: set, phase, msg_id, partial };
    Net::UpdateMsg(share, Box::new(members.pop().expect("a set of one")))
}

fn main() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real;
    let topo = Topology::single_pod(2, 2, 2);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let victim = topo.switches()[2].id;
    let rogue_node = engine.controller_node(DomainId(0), ControllerId(2));

    println!("attack 1: solo rogue update (one honest-looking share)");
    let u1 = rogue_update(victim, 0);
    engine.inject_raw(
        SimTime::ZERO + SimDuration::from_millis(1),
        rogue_node,
        engine.switch_node(victim),
        rogue_share(
            u1,
            Phase(0),
            MsgId { origin: 2, seq: 1 },
            PartialSignature {
                index: 2,
                sig: g1_generator().to_affine(),
            },
        ),
    );
    engine.run(engine.now() + SimDuration::from_secs(2));
    assert_eq!(applied(&engine), 0, "no quorum, no application");
    println!("  -> buffered forever, never applied ✓");

    println!("attack 2: fabricated quorum (forged partials under indices 1,3,4)");
    let u2 = rogue_update(victim, 1);
    for idx in [1u32, 3, 4] {
        engine.inject_raw(
            engine.now() + SimDuration::from_millis(1),
            rogue_node,
            engine.switch_node(victim),
            rogue_share(
                u2.clone(),
                Phase(0),
                MsgId {
                    origin: 2,
                    seq: 10 + idx as u64,
                },
                PartialSignature {
                    index: idx,
                    sig: g1_generator().mul_fr(blscrypto::fields::Fr::from_u64(idx as u64)).to_affine(),
                },
            ),
        );
    }
    engine.run(engine.now() + SimDuration::from_secs(2));
    assert_eq!(applied(&engine), 0);
    let rejected = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::UpdateRejected { .. }))
        .count();
    assert!(rejected >= 1, "aggregate failed group-key verification");
    println!("  -> aggregate signature failed verification, update rejected ✓");

    println!("attack 3: stale-phase replay");
    let u3 = rogue_update(victim, 2);
    engine.inject_raw(
        engine.now() + SimDuration::from_millis(1),
        rogue_node,
        engine.switch_node(victim),
        rogue_share(
            u3,
            Phase(999), // wrong phase
            MsgId { origin: 2, seq: 99 },
            PartialSignature {
                index: 1,
                sig: g1_generator().to_affine(),
            },
        ),
    );
    engine.run(engine.now() + SimDuration::from_secs(2));
    assert_eq!(applied(&engine), 0);
    println!("  -> discarded (phase mismatch) ✓");

    // The victim's table is untouched.
    let table_len = engine.with_switch(victim, |s| s.table().len());
    assert_eq!(table_len, 0);
    println!("victim flow table is empty — all three attacks defeated.");
}

fn applied(engine: &Engine) -> usize {
    engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::UpdateApplied { .. }))
        .count()
}
