//! Unit-cost replays: one layer at a time, called directly through its
//! public functions, so that an end-to-end change can be set against the
//! cost of the operations it is made of — and every `CostModel` constant
//! against a measured counterpart. Run once per traced run; the numbers
//! do not depend on the workload.

use crate::metrics::Metrics;
use crate::node::{engine_config, fabric};
use crate::trace::Tracer;
use bft::prelude::*;
use blscrypto::batch::{batch_verify, BatchItem};
use blscrypto::bls::{self, SecretKey};
use blscrypto::dkg;
use cicero_core::config::{Aggregation, Mode};
use controller::policy::DomainMap;
use controller::scheduler::{DependencyGraphScheduler, UpdateScheduler};
use netmodel::flowtable::FlowTable;
use netmodel::routing::route;
use netmodel::telekom;
use netmodel::topology::Topology;
use simnet::latency::UniformLatency;
use simnet::node::{Actor, Host, NodeId};
use simnet::sim::Simulation;
use simnet::time::{SimDuration, SimTime};
use southbound::codec::Wire;
use southbound::envelope::{MsgId, Signed};
use southbound::types::*;
use std::hint::black_box;
use std::time::{Duration, Instant};
use substrate::rng::{SeedableRng, StdRng};
use substrate::storage::{mem_disk, Wal};

/// Shortest sample worth timing.
const MIN_SAMPLE: Duration = Duration::from_millis(4);
/// Samples per replay; the median is reported.
const SAMPLES: usize = 7;
/// A call this slow gets [`SLOW_SAMPLES`] samples of one call each.
const SLOW_CALL: Duration = Duration::from_millis(20);
const SLOW_SAMPLES: usize = 3;

/// Consumes a result so the call that produced it cannot be optimised away.
fn sink<T>(v: T) {
    let _ = black_box(v);
}

/// Median nanoseconds per call of `f`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let mut sample = |iters: u64| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed()
    };
    let mut samples = SAMPLES;
    loop {
        let dt = sample(iters);
        if dt >= MIN_SAMPLE || iters >= 1 << 24 {
            if iters == 1 && dt >= SLOW_CALL {
                samples = SLOW_SAMPLES;
            }
            break;
        }
        // Aim a little past the minimum so the next probe is the last.
        let scale = (MIN_SAMPLE.as_secs_f64() * 1.5 / dt.as_secs_f64().max(1e-9)).ceil();
        iters = (iters as f64 * scale.clamp(2.0, 1024.0)) as u64;
    }
    let mut v: Vec<f64> = (0..samples)
        .map(|_| sample(iters).as_secs_f64() * 1e9 / iters as f64)
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The updates of an `n`-hop route, in path order.
fn route_updates(n: u32) -> Vec<NetworkUpdate> {
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

/// Orders `payloads` submissions through an in-memory `n`-replica group
/// (as `benches/consensus.rs` does); returns `(delivered at replica 0,
/// messages exchanged)`.
fn order_payloads(n: u32, payloads: u64) -> (u64, u64) {
    type Queue = Vec<(ReplicaId, ReplicaId, BftMessage<u64>)>;
    let cfg = BftConfig::new(n);
    let mut replicas: Vec<Replica<u64>> = (0..n).map(|i| Replica::new(ReplicaId(i), cfg)).collect();
    let mut queue: Queue = Vec::new();
    let (mut delivered, mut sent) = (0u64, 0u64);
    let mut apply = |at: ReplicaId, outs: Vec<Output<u64>>, queue: &mut Queue| {
        for out in outs {
            match out {
                Output::Send(to, msg) => queue.push((at, to, msg)),
                Output::Broadcast(msg) => {
                    for i in (0..n).filter(|&i| i != at.0) {
                        queue.push((at, ReplicaId(i), msg.clone()));
                    }
                }
                Output::Deliver(_, _) if at.0 == 0 => delivered += 1,
                Output::Deliver(_, _) => {}
            }
        }
    };
    for p in 0..payloads {
        let submitter = (p % u64::from(n)) as usize;
        let outs = replicas[submitter].submit(1000 + p);
        apply(ReplicaId(submitter as u32), outs, &mut queue);
    }
    while let Some((from, to, msg)) = queue.pop() {
        sent += 1;
        let outs = replicas[to.0 as usize].handle(from, msg);
        apply(to, outs, &mut queue);
    }
    (delivered, sent)
}

/// Bounces a counter to its peer until it reaches the limit.
struct PingPong {
    peer: NodeId,
    limit: u32,
}

impl Actor<u32> for PingPong {
    fn on_message(&mut self, ctx: &mut dyn Host<u32>, _from: NodeId, n: u32) {
        if n < self.limit {
            ctx.send(self.peer, n + 1);
        }
    }
}

/// Runs every replay and returns the per-layer metrics they produce.
pub fn replay(tr: &mut Tracer) -> Metrics {
    let root = tr.enter("unit_replays");
    let mut m = Metrics::new();
    let mut rng = StdRng::seed_from_u64(2);
    let msg = b"install flow rule 42";

    // ---- blscrypto: the paper's n = 4 control plane, quorum 2 ----------
    let span = tr.enter("blscrypto");
    let group = dkg::run_trusted_dealer_free(4, 1, &mut rng).expect("honest DKG");
    let share = &group.participants[0].share;
    let partial = bls::sign_share(share, msg);
    let partials: Vec<_> = group.participants[..2]
        .iter()
        .map(|p| bls::sign_share(&p.share, msg))
        .collect();
    let agg = bls::aggregate_threshold(&partials, 1).expect("quorum of partials");
    m.insert(
        "blscrypto.sign_share_us",
        ns_per_call(|| sink(bls::sign_share(share, msg))) / 1e3,
    );
    let share_pk = share.public_key();
    m.insert(
        "blscrypto.verify_partial_us",
        ns_per_call(|| sink(bls::verify_partial(&share_pk, msg, &partial))) / 1e3,
    );
    m.insert(
        "blscrypto.aggregate_q2_us",
        ns_per_call(|| sink(bls::aggregate_threshold(&partials, 1))) / 1e3,
    );
    m.insert(
        "blscrypto.verify_us",
        ns_per_call(|| sink(bls::verify(&group.group_public_key, msg, &agg))) / 1e3,
    );
    let keys: Vec<SecretKey> = (0..8).map(|_| SecretKey::generate(&mut rng)).collect();
    let msgs: Vec<Vec<u8>> = (0..8).map(|i| format!("update {i}").into_bytes()).collect();
    let items: Vec<BatchItem<'_>> = keys
        .iter()
        .zip(&msgs)
        .map(|(k, m)| BatchItem::new(k.public_key(), m, k.sign(m)))
        .collect();
    m.insert(
        "blscrypto.batch_verify_item_us",
        ns_per_call(|| {
            let mut weights = StdRng::seed_from_u64(9);
            assert!(black_box(batch_verify(&items, &mut weights)));
        }) / 1e3
            / items.len() as f64,
    );
    m.insert(
        "blscrypto.dkg_n4_ms",
        ns_per_call(|| sink(dkg::run_trusted_dealer_free(4, 1, &mut rng))) / 1e6,
    );
    tr.exit(span);

    // ---- southbound: signed envelope and wire codec of one update ------
    let span = tr.enter("southbound");
    let update = route_updates(1)[0];
    let sk = &keys[0];
    let pk = sk.public_key();
    let id = MsgId { origin: 1, seq: 1 };
    let signed = Signed::sign("bench", update, Phase(0), id, sk);
    m.insert(
        "southbound.envelope_sign_us",
        ns_per_call(|| sink(Signed::sign("bench", update, Phase(0), id, sk))) / 1e3,
    );
    m.insert(
        "southbound.envelope_verify_us",
        ns_per_call(|| assert!(black_box(signed.verify("bench", &pk)))) / 1e3,
    );
    let bytes = update.to_wire();
    m.insert(
        "southbound.encode_update_ns",
        ns_per_call(|| sink(update.to_wire())),
    );
    m.insert(
        "southbound.decode_update_ns",
        ns_per_call(|| sink(NetworkUpdate::from_wire(&bytes))),
    );
    tr.exit(span);

    // ---- bft: 100 payloads through 4 in-process replicas ----------------
    let span = tr.enter("bft");
    let (delivered, sent) = order_payloads(4, 100);
    assert_eq!(delivered, 100, "every payload is ordered");
    m.insert("bft.msgs_per_payload", sent as f64 / 100.0);
    m.insert(
        "bft.order_us_per_payload",
        ns_per_call(|| sink(order_payloads(4, 100))) / 1e3 / 100.0,
    );
    tr.exit(span);

    // ---- controller: dependency-graph schedule of a 5-hop route --------
    let span = tr.enter("controller");
    let hops = route_updates(5);
    m.insert(
        "controller.schedule_us",
        ns_per_call(|| sink(DependencyGraphScheduler::new().schedule(&hops))) / 1e3,
    );
    tr.exit(span);

    // ---- netmodel: routing on both fabrics, flow-table insert ----------
    let span = tr.enter("netmodel");
    let pods = fabric();
    let wan = Topology::multi_dc(4, 4, 6, 4, 2, 2, telekom::wan(4));
    let ends = |t: &Topology| {
        let h = t.hosts();
        (h[0].id, h[h.len() - 1].id)
    };
    let ((a, b), (c, d)) = (ends(&pods), ends(&wan));
    m.insert(
        "netmodel.route_us",
        ns_per_call(|| {
            black_box(route(&pods, a, b).is_some());
            black_box(route(&wan, c, d).is_some());
        }) / 1e3
            / 2.0,
    );
    let mut table = FlowTable::new();
    let mut next = 0u32;
    m.insert(
        "netmodel.flowtable_apply_ns",
        ns_per_call(|| {
            // A bounded working set: inserts replace once it has wrapped.
            next = (next + 1) % 4096;
            table.apply(&NetworkUpdate {
                id: update.id,
                switch: update.switch,
                kind: UpdateKind::Install(FlowRule {
                    matcher: FlowMatch {
                        src: HostId(next),
                        dst: HostId(next + 1),
                    },
                    action: FlowAction::Forward(NextHop::Switch(SwitchId(1))),
                }),
            });
        }),
    );
    tr.exit(span);

    // ---- substrate: one 200-byte WAL append on an in-memory disk -------
    let span = tr.enter("substrate");
    let (mut wal, _) = Wal::open(mem_disk(), "bench.wal");
    let record = [7u8; 200];
    m.insert(
        "substrate.wal_append_us",
        ns_per_call(|| {
            if wal.record_count() >= 4096 {
                wal.truncate();
            }
            wal.append(&record);
        }) / 1e3,
    );
    tr.exit(span);

    // ---- simnet: the bare event loop, two actors bouncing a counter ----
    let span = tr.enter("simnet");
    let hops = 200_000u32;
    let t = Instant::now();
    let mut sim: Simulation<u32> = Simulation::new(1, UniformLatency(SimDuration::from_micros(10)));
    let first = sim.add_node(PingPong {
        peer: NodeId(1),
        limit: hops,
    });
    sim.add_node(PingPong {
        peer: first,
        limit: hops,
    });
    sim.start();
    sim.inject(SimTime::ZERO, first, 0);
    sim.run();
    m.insert(
        "simnet.raw_events_per_s",
        sim.delivered_count() as f64 / t.elapsed().as_secs_f64(),
    );
    tr.exit(span);

    // ---- workload: generating the sim_fabric input ----------------------
    let span = tr.enter("workload");
    let mut spec = workload::spec::web_server_multi_dc();
    spec.flows = 1000;
    m.insert(
        "workload.generate_us_per_flow",
        ns_per_call(|| {
            let mut rng = StdRng::seed_from_u64(5);
            black_box(workload::gen::generate(&wan, &spec, &mut rng).len());
        }) / 1e3
            / spec.flows as f64,
    );
    tr.exit(span);

    // ---- cicero-core: planning the node fabric, key ceremony included --
    let span = tr.enter("core");
    let mode = Mode::Cicero {
        aggregation: Aggregation::Switch,
    };
    m.insert(
        "core.plan_ms",
        ns_per_call(|| {
            let topo = fabric();
            let domains = DomainMap::by_pod(&topo);
            black_box(
                cicero_core::deploy::plan(engine_config(mode, 1), topo, domains, 0)
                    .nodes
                    .len(),
            );
        }) / 1e6,
    );
    tr.exit(span);

    tr.exit(root);
    m
}
