//! Scaled-down versions of every evaluation experiment, asserting the
//! *shape* the paper reports (who wins, how things scale) rather than
//! absolute numbers.

use cicero::prelude::*;
use controller::policy::DomainMap;

#[test]
fn flow_setup_anchors_are_ordered_like_the_paper() {
    // §6.2: centralized < crash-tolerant < Cicero < Cicero Agg, and the
    // values sit near the reported 2.9 / 4.3 / 8.3 / 11.6 ms.
    let ms: Vec<f64> = ALL_MODES
        .iter()
        .map(|&m| flow_setup_latency_ms(m, 42))
        .collect();
    assert!(ms[0] < ms[1] && ms[1] < ms[2] && ms[2] < ms[3], "{ms:?}");
    for (got, want) in ms.iter().zip([2.9, 4.3, 8.3, 11.6]) {
        let rel = (got - want).abs() / want;
        assert!(rel < 0.25, "setup {got:.2} vs paper {want} off by {rel:.0$}", 2);
    }
}

#[test]
fn fig12a_update_time_grows_with_control_plane_size() {
    let rows = fig12a_update_time(&[1, 4, 10], 4, 7);
    let get = |mode: Mode, n: u32| {
        rows.iter()
            .find(|(m, k, _)| *m == mode && *k == n)
            .map(|&(_, _, ms)| ms)
            .unwrap()
    };
    let central = get(Mode::Centralized, 1);
    let cicero4 = get(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        4,
    );
    let cicero10 = get(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        10,
    );
    let crash10 = get(Mode::CrashTolerant, 10);
    assert!(central < cicero4, "protection costs something");
    assert!(cicero4 < cicero10, "larger planes are slower");
    assert!(crash10 < cicero10, "authentication costs something");
    // The paper's headline: a large Cicero plane costs a low single-digit
    // multiple of centralized (reported ≈2.5x at n=10).
    let ratio = cicero10 / central;
    assert!((1.5..6.0).contains(&ratio), "ratio {ratio:.1}");
}

#[test]
fn fig12b_locality_shrinks_per_domain_load() {
    let mut hadoop = workload::spec::hadoop();
    hadoop.flows = 600;
    let k1 = fig12b_event_locality(&hadoop, 1, 7);
    let k4 = fig12b_event_locality(&hadoop, 4, 7);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!((avg(&k1) - 100.0).abs() < 1e-6);
    // Four domains: each handles ~25% (plus the small multi-domain tax).
    assert!(avg(&k4) < 40.0, "avg per-domain share {:.1}%", avg(&k4));

    // Web server traffic is less local than Hadoop, so its multi-domain
    // tax is higher (paper: 31.6% vs 5.8% multi-domain events).
    let mut web = workload::spec::web_server();
    web.flows = 600;
    let k4_web = fig12b_event_locality(&web, 4, 7);
    assert!(
        avg(&k4_web) > avg(&k4),
        "web {:.1}% should exceed hadoop {:.1}%",
        avg(&k4_web),
        avg(&k4)
    );
}

#[test]
fn fig11d_controller_aggregation_halves_switch_cpu() {
    let mut spec = workload::spec::hadoop();
    spec.flows = 400;
    let topo = Topology::single_pod(8, 4, 4);
    let total_cpu = |mode| {
        let cfg = EngineConfig {
            seed: 7,
            ..EngineConfig::for_mode(mode)
        };
        let run = run_flow_completion(cfg, &topo, DomainMap::single(&topo), &spec);
        run.mean_switch_cpu.iter().sum::<f64>()
    };
    let cicero = total_cpu(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    let agg = total_cpu(Mode::Cicero {
        aggregation: Aggregation::Controller,
    });
    let central = total_cpu(Mode::Centralized);
    assert!(central < agg, "baseline uses the least switch CPU");
    let ratio = cicero / agg;
    assert!(
        (1.5..3.5).contains(&ratio),
        "switch aggregation should roughly double switch CPU (got {ratio:.2}x)"
    );
}

#[test]
fn fig12d_multi_domain_cicero_beats_centralized_across_dcs() {
    // The paper's crossover result: with data centers behind WAN latencies,
    // domain parallelism makes Cicero *faster* than a single centralized
    // controller serving everything remotely. The paper's system installs
    // each domain's path segment independently, so the crossover claim is
    // asserted on the paper-faithful "unordered" series. The default
    // consistency-preserving protocol additionally serializes
    // boundary-crossing installs destination-first (the cross-domain
    // handshake, DESIGN.md §3); that correctness guarantee costs latency on
    // exactly the multi-domain flows the parallelism used to speed up, so
    // for it we assert the ordering tax stays bounded rather than the
    // crossover itself.
    let mut spec = workload::spec::web_server_multi_dc();
    spec.flows = 800;
    let runs = fig12d_runs(&spec, 3, 7);
    let mean = |label: &str| {
        runs.iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| c.mean())
            .unwrap()
    };
    let central = mean("Centralized");
    let unordered = mean("Cicero MD unordered");
    let cicero_md = mean("Cicero MD");
    assert!(
        unordered < central,
        "paper Fig. 12d: Cicero MD without cross-domain ordering \
         ({unordered:.2} ms) must beat centralized ({central:.2} ms)"
    );
    assert!(
        cicero_md < central * 1.35,
        "consistency-preserving Cicero MD ({cicero_md:.2} ms) must stay \
         within 1.35x of centralized ({central:.2} ms)"
    );
    assert!(
        cicero_md > unordered,
        "the handshake serializes boundary-crossing installs, so the \
         consistent series ({cicero_md:.2} ms) cannot be faster than the \
         unordered one ({unordered:.2} ms)"
    );
}

#[test]
fn segway_beats_cicero_md_at_equal_consistency() {
    // The decentralized-execution claim (ez-Segway, adapted): with the
    // dependency metadata threshold-signed and pushed once, switches
    // order boundary-crossing installs among themselves with signed
    // readies — one switch-to-switch hop per dependency edge instead of
    // a controller round-trip — so at *equal consistency* (both series
    // destination-first ordered) Segway completes flows strictly faster
    // than Cicero MD. Message counts come along so the figure exposes
    // what each mode's ordering costs the control plane.
    let mut spec = workload::spec::web_server_multi_dc();
    spec.flows = 800;
    let runs = segway_vs_cicero_md(&spec, 3, 7);
    let get = |label: &str| runs.iter().find(|r| r.label == label).unwrap();
    let cicero = get("Cicero MD");
    let segway = get("Segway MD");
    assert!(
        !segway.cdf.is_empty() && !cicero.cdf.is_empty(),
        "both series must complete flows"
    );
    assert!(
        segway.cdf.mean() < cicero.cdf.mean(),
        "Segway ({:.2} ms) must beat consistency-preserving Cicero MD \
         ({:.2} ms) at equal consistency",
        segway.cdf.mean(),
        cicero.cdf.mean()
    );
    assert!(
        segway.messages > 0 && cicero.messages > 0,
        "message accounting must be live"
    );
}

#[test]
fn fig11a_mode_overhead_is_amortized_with_rule_reuse() {
    // With rule reuse, the CDFs nearly overlap: mean overhead of Cicero vs
    // centralized stays under ~25% (the paper calls it "negligible").
    let mut spec = workload::spec::hadoop();
    spec.flows = 800;
    let runs = fig11_flow_completion(&spec, true, CostModel::default(), 11);
    let central = runs[0].cdf.mean();
    let cicero = runs[2].cdf.mean();
    assert!(runs[0].label == "Centralized" && runs[2].label == "Cicero");
    let overhead = (cicero - central) / central;
    assert!(
        overhead < 0.25,
        "amortized overhead should be small, got {:.0}%",
        overhead * 100.0
    );
}

#[test]
fn fig11c_unamortized_overhead_matches_paper_band() {
    // Paper: 16% (Cicero) and 29% (Cicero Agg) over centralized for
    // short-lived setup/teardown flows.
    let mut spec = workload::spec::hadoop();
    spec.flows = 500;
    let runs = fig11_flow_completion(&spec, false, CostModel::default(), 13);
    let central = runs[0].cdf.mean();
    let cicero = (runs[2].cdf.mean() - central) / central;
    let agg = (runs[3].cdf.mean() - central) / central;
    assert!(
        (0.05..0.45).contains(&cicero),
        "Cicero unamortized overhead {:.0}% out of band",
        cicero * 100.0
    );
    assert!(agg > cicero, "controller aggregation costs more latency");
}
