//! Benchmarks of the protocol-layer data structures on the in-tree
//! `substrate::benchkit` harness: the wire codec, update schedulers, flow
//! tables and routing — the per-message software costs the simulator's
//! `CostModel` abstracts. Run with `BENCHKIT_OUT=BENCH_protocol.json` to
//! merge the suite into the recorded baseline.

use blscrypto::bls::SecretKey;
use cicero_core::auth::{pair_key, Peer};
use cicero_core::msg::{ReadyBody, SegmentBody, UpdateBody, UpdateSet};
use cicero_core::runtime::labels;
use controller::scheduler::{
    DependencyGraphScheduler, ReversePathScheduler, UpdateScheduler,
};
use netmodel::flowtable::FlowTable;
use netmodel::routing::route;
use netmodel::topology::Topology;
use southbound::codec::Wire;
use southbound::envelope::{MsgId, Tagged};
use southbound::merkle::TreeHash;
use southbound::types::*;
use std::hint::black_box;
use substrate::benchkit::Harness;
use substrate::rng::{SeedableRng, StdRng};

fn sample_updates(n: u32) -> Vec<NetworkUpdate> {
    (0..n)
        .map(|i| NetworkUpdate {
            id: UpdateId {
                event: EventId(1),
                seq: i,
            },
            switch: SwitchId(i),
            kind: UpdateKind::Install(FlowRule {
                matcher: FlowMatch {
                    src: HostId(0),
                    dst: HostId(99),
                },
                action: FlowAction::Forward(NextHop::Switch(SwitchId(i + 1))),
            }),
        })
        .collect()
}

fn bench_codec(c: &mut Harness) {
    let event = Event {
        id: EventId(7),
        kind: EventKind::PacketIn {
            switch: SwitchId(3),
            flow: FlowId(10),
            src: HostId(1),
            dst: HostId(2),
        },
        origin: DomainId(0),
        forwarded: false,
    };
    let bytes = event.to_wire();
    c.bench_function("codec_encode_event", |b| b.iter(|| black_box(event.to_wire())));
    c.bench_function("codec_decode_event", |b| {
        b.iter(|| black_box(Event::from_wire(&bytes).unwrap()))
    });
}

fn bench_segway_codec(c: &mut Harness) {
    // Segway's two wire messages: the threshold-signed update body with its
    // gate/notify metadata filled in, and the switch-to-switch release.
    // Their codec cost is the per-dependency-edge software overhead the
    // mode adds. (The entry names predate the body's rename; benchgate
    // fails on a vanished entry, so they stay.)
    let updates = sample_updates(9);
    let body = UpdateBody {
        update: updates[4].clone(),
        gates: updates[..4]
            .iter()
            .map(|u| (u.id, u.switch))
            .collect(),
        notify: updates[5..].iter().map(|u| u.switch).collect(),
        held: false,
    };
    let bytes = body.to_wire();
    c.bench_function("segway_encode_body_4gates", |b| {
        b.iter(|| black_box(body.to_wire()))
    });
    c.bench_function("segway_decode_body_4gates", |b| {
        b.iter(|| black_box(UpdateBody::from_wire(&bytes).unwrap()))
    });
    let ready = ReadyBody {
        update: updates[4].id,
        from: SwitchId(4),
        to: SwitchId(5),
    };
    let rbytes = ready.to_wire();
    c.bench_function("segway_encode_ready", |b| b.iter(|| black_box(ready.to_wire())));
    c.bench_function("segway_decode_ready", |b| {
        b.iter(|| black_box(ReadyBody::from_wire(&rbytes).unwrap()))
    });
}

fn bench_schedulers(c: &mut Harness) {
    let updates = sample_updates(8);
    c.bench_function("schedule_reverse_path_8", |b| {
        b.iter(|| black_box(ReversePathScheduler.schedule(&updates)))
    });
    c.bench_function("schedule_dependency_graph_8", |b| {
        b.iter(|| black_box(DependencyGraphScheduler::new().schedule(&updates)))
    });
}

fn bench_flow_table(c: &mut Harness) {
    let mut table = FlowTable::new();
    for i in 0..10_000u32 {
        table.install(FlowRule {
            matcher: FlowMatch {
                src: HostId(i),
                dst: HostId(i + 1),
            },
            action: FlowAction::Forward(NextHop::Switch(SwitchId(1))),
        });
    }
    c.bench_function("flow_table_lookup_10k_rules", |b| {
        b.iter(|| {
            black_box(table.lookup(FlowMatch {
                src: HostId(5000),
                dst: HostId(5001),
            }))
        })
    });
}

fn bench_routing(c: &mut Harness) {
    let topo = Topology::multi_pod(4, 40, 4, 4, 4);
    let hosts = topo.hosts();
    let (src, dst) = (hosts[0].id, hosts.last().unwrap().id);
    c.bench_function("route_pod_fabric_4x40racks", |b| {
        b.iter(|| black_box(route(&topo, src, dst).unwrap()))
    });
}

/// One cross-domain boundary's handshake crypto, end to end, for two
/// 4-controller domains: each downstream controller tags its segment report
/// once per upstream controller (4 × 4 tags), and every upstream controller
/// checks the two reports that make its quorum (2 checks at each of 4) —
/// later ones find the quorum on record and are dropped unchecked. The pair
/// keys are derived before the loop, as each controller caches its own.
/// `verify.sh` caps the median: a change that goes back to threshold-signed
/// certificates (4 share-signs + 4 aggregate checks ≈ 7.7 ms here) cannot
/// stay under it.
fn bench_handshake(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(12);
    let mut members = || -> Vec<SecretKey> {
        (0..4).map(|_| SecretKey::generate(&mut rng)).collect()
    };
    let (down, up) = (members(), members());
    let peer = |d, i: usize| Peer::Controller(DomainId(d), ControllerId(i as u32 + 1));
    // keys[r][u]: what downstream controller r tags with for upstream u.
    let keys: Vec<Vec<[u8; 32]>> = down
        .iter()
        .enumerate()
        .map(|(r, x)| {
            let to = up.iter().enumerate();
            to.map(|(u, y)| pair_key(x, &y.public_key(), peer(1, r), peer(0, u))).collect()
        })
        .collect();
    let report = SegmentBody {
        event: EventId((3 << 32) | 1),
        segment: 1,
        domain: DomainId(1),
    };
    c.bench_function("handshake_boundary_n4", |b| {
        b.iter(|| {
            let tagged: Vec<Vec<Tagged<SegmentBody>>> = keys
                .iter()
                .enumerate()
                .map(|(r, row)| {
                    let id = MsgId { origin: r as u32 + 1, seq: 1 };
                    let tag = |k| Tagged::tag(labels::SEGMENT, report, Phase(0), id, k);
                    row.iter().map(tag).collect()
                })
                .collect();
            for u in 0..4 {
                for r in 0..2 {
                    assert!(tagged[r][u].verify(labels::SEGMENT, &keys[r][u]));
                }
            }
            black_box(tagged);
        })
    });
}

/// What one domain-event's set costs beyond its one share-sign: its
/// controllers each hash a four-body set to its root (four leaf hashes,
/// three node hashes) and cut each member's audit path, and each switch
/// checks its member's path (a leaf hash and two node hashes) before it
/// buckets or verifies anything.
fn bench_update_set(c: &mut Harness) {
    let bodies: Vec<UpdateBody> = sample_updates(4)
        .into_iter()
        .map(|update| UpdateBody { update, gates: Vec::new(), notify: Vec::new(), held: true })
        .collect();
    let (set, members) = UpdateSet::of(TreeHash::Sha256, EventId(1), DomainId(0), bodies.clone());
    c.bench_function("update_set_root_4_and_path_check", |b| {
        b.iter(|| {
            let (root, _) = UpdateSet::of(TreeHash::Sha256, EventId(1), DomainId(0), black_box(bodies.clone()));
            assert!(set.binds(TreeHash::Sha256, black_box(&members[2])));
            black_box(root)
        })
    });
}

fn main() {
    let mut harness = Harness::new("protocol");
    bench_codec(&mut harness);
    bench_segway_codec(&mut harness);
    bench_schedulers(&mut harness);
    bench_flow_table(&mut harness);
    bench_routing(&mut harness);
    bench_handshake(&mut harness);
    bench_update_set(&mut harness);
    harness.finish();
}
