//! Benchmarks of the protocol-layer data structures on the in-tree
//! `substrate::benchkit` harness: the wire codec, update schedulers, flow
//! tables and routing — the per-message software costs the simulator's
//! `CostModel` abstracts. Run with `BENCHKIT_OUT=BENCH_protocol.json` to
//! merge the suite into the recorded baseline.

use blscrypto::bls::PreparedKey;
use blscrypto::dkg;
use cicero_core::collector::{Check, Quorum, QuorumCollector};
use cicero_core::msg::{ReadyBody, SegmentBody, UpdateBody};
use cicero_core::runtime::labels;
use controller::scheduler::{
    DependencyGraphScheduler, ReversePathScheduler, UpdateScheduler,
};
use netmodel::flowtable::FlowTable;
use netmodel::routing::route;
use netmodel::topology::Topology;
use southbound::codec::Wire;
use southbound::envelope::{MsgId, ShareSigned};
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
/// 4-controller domains: the downstream domain share-signs its segment
/// report (4 share-signs) and every upstream controller certifies the
/// quorum through the production collector (4 aggregate + verify). That is
/// all of it — a share that is lost is asked for again, unsigned.
/// `verify.sh` caps the median: a change that quietly goes back to
/// verifying every report singly (16 verifies ≈ 22 ms here) cannot stay
/// under it.
fn bench_handshake(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(12);
    let down = dkg::run_trusted_dealer_free(4, 1, &mut rng).expect("dkg");
    // The group key as a controller holds it (`KeyMaterial`): long-lived,
    // so its line table is built by the first iteration and kept.
    let down_pk = PreparedKey::from(down.group_public_key);
    let report = SegmentBody {
        event: EventId((3 << 32) | 1),
        segment: 1,
        domain: DomainId(1),
    };
    let key = (report.event, report.segment);
    let id = |origin| MsgId { origin, seq: 1 };
    c.bench_function("handshake_boundary_n4", |b| {
        b.iter(|| {
            let shares: Vec<ShareSigned<SegmentBody>> = down
                .participants
                .iter()
                .map(|p| ShareSigned::sign(labels::SEGMENT, report, Phase(0), id(p.index), &p.share))
                .collect();
            for _upstream in 0..4 {
                // The first two shares make the quorum; the other two find
                // it on record and are dropped — no collector work, as in
                // the controller.
                let mut collector = QuorumCollector::new();
                for s in &shares[..2] {
                    collector.offer(key, s.phase, s.payload, s.partial);
                }
                let check = Check {
                    label: labels::SEGMENT,
                    quorum: 2,
                    keys: Some((&down_pk, &down.group)),
                };
                let certified = collector.try_quorum(key, Phase(0), check);
                assert!(matches!(certified, Quorum::Certified(_)));
                black_box(certified);
            }
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
    harness.finish();
}
