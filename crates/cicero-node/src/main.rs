//! The `cicero-node` binary: stands up a multi-domain Cicero deployment on
//! real OS threads from a JSON config and runs it to convergence.

#![forbid(unsafe_code)]

use cicero_core::audit::audit_flow;
use cicero_node::config::USAGE;
use cicero_node::exec::ThreadedDeployment;
use cicero_node::NodeSpec;
use southbound::types::FlowMatch;

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        None => return Err(format!("missing config path\n\n{USAGE}")),
        Some(a) if a == "--help" || a == "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        Some(a) => a,
    };
    if args.next().is_some() {
        return Err(format!("expected exactly one argument\n\n{USAGE}"));
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = NodeSpec::from_json(&text)?;

    let topo = spec.topology();
    let flows = spec.workload(&topo);
    let mut dep = cicero_core::deploy::plan(
        spec.engine_config(),
        spec.topology(),
        spec.domain_map(&topo),
        0,
    );
    match &spec.state_dir {
        Some(dir) => {
            let base = std::path::PathBuf::from(dir);
            // Every invocation runs its own key ceremony, so WAL/snapshot
            // state left by a previous process belongs to a dead cluster
            // incarnation and must not be replayed into this one. In-run
            // restarts (`restart_at_ms`) still replay the log written
            // below.
            if base.exists() {
                std::fs::remove_dir_all(&base)
                    .map_err(|e| format!("cannot clear state dir {base:?}: {e}"))?;
            }
            dep.provision_storage(|d, c| {
                let sub = base.join(format!("d{}-c{}", d.0, c.0));
                cicero_node::disk::FsDisk::handle(&sub)
                    .unwrap_or_else(|e| panic!("cannot open state dir {sub:?}: {e}"))
            });
        }
        None => dep.provision_storage(|_, _| substrate::storage::mem_disk()),
    }
    println!(
        "cicero-node: {} nodes ({} domains), {} flows, mode {}{}",
        dep.nodes.len(),
        dep.bootstrap_nodes.len(),
        flows.len(),
        spec.mode.label(),
        match &spec.state_dir {
            Some(d) => format!(", durable state in {d}"),
            None => String::new(),
        },
    );

    // The kill victim: the second member of the first domain (never the
    // view-0 primary/aggregator, so consensus keeps making progress).
    let victim = deployment_victim(&dep);

    let mut deployment = ThreadedDeployment::launch(dep);
    deployment.inject_flows(&flows);
    if let Some(kill_ms) = spec.kill_at_ms {
        let (d, c) = victim.ok_or("kill_at_ms needs a domain with >= 2 controllers")?;
        std::thread::sleep(std::time::Duration::from_millis(kill_ms));
        let node = deployment.shared().dir.controller(d, c);
        deployment.kill(node);
        println!("killed controller {}.{} at +{kill_ms} ms", d.0, c.0);
        if let Some(restart_ms) = spec.restart_at_ms {
            std::thread::sleep(std::time::Duration::from_millis(restart_ms - kill_ms));
            deployment.restart(node, spec.disk_lost);
            let how = if spec.disk_lost { "wiped disk" } else { "local WAL" };
            println!(
                "restarted controller {}.{} at +{restart_ms} ms ({how})",
                d.0, c.0
            );
        }
    }
    let report = deployment.run_to_convergence(spec.budget());
    println!("{report}");
    let busiest = report
        .dropped_per_node
        .iter()
        .enumerate()
        .max_by_key(|(_, &n)| n);
    if let Some((node, &n)) = busiest {
        if n > 0 {
            println!("busiest mailbox: node {node} dropped {n} messages");
        }
    }

    let shared = deployment.shared().clone();
    let obs = deployment.shutdown();
    let recovered = obs
        .iter()
        .filter(|o| matches!(o.value, cicero_core::obs::Obs::ControllerRecovered { .. }))
        .count();
    if spec.restart_at_ms.is_some() {
        println!("controller recoveries observed: {recovered}");
    }
    let mut hazards = 0usize;
    for f in &flows {
        let Some(ingress) = shared.topo.host(f.src).map(|h| h.attached) else {
            continue;
        };
        let m = FlowMatch {
            src: f.src,
            dst: f.dst,
        };
        hazards += audit_flow(&obs, ingress, m, false).len();
    }
    println!(
        "consistency audit: {} hazards across {} flows",
        hazards,
        flows.len()
    );

    if !report.completed {
        return Err("deployment did not converge within the budget".to_string());
    }
    if hazards > 0 {
        return Err(format!("consistency audit found {hazards} hazards"));
    }
    if spec.restart_at_ms.is_some() && recovered == 0 {
        return Err("restarted controller never completed state sync".to_string());
    }
    Ok(())
}

/// The second member of the first domain, if any — the designated kill
/// victim for `kill_at_ms`.
fn deployment_victim(
    dep: &cicero_core::deploy::Deployment,
) -> Option<(southbound::types::DomainId, southbound::types::ControllerId)> {
    let (&d, members) = dep.shared.dir.initial_members.iter().next()?;
    members.get(1).map(|&c| (d, c))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("cicero-node: {e}");
        std::process::exit(1);
    }
}
