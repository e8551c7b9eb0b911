//! The simulation-fuzzer driver.
//!
//! Usage:
//!   simcheck replay <artifact.json>      # re-execute a shrunk reproducer
//!   simcheck run [count] [--start N]     # explore `count` seeds from N
//!   simcheck secure [count] [--start N]  # same, forced into the secure
//!                                        # (Cicero-family, threshold-
//!                                        # signed) modes
//!   simcheck recover [count] [--start N] # crash-recovery sweep: every
//!                                        # seed crashes and restarts one
//!                                        # controller mid-run
//!   simcheck segway [count] [--start N]  # decentralized-execution sweep:
//!                                        # every seed runs Segway mode
//!                                        # (switch-to-switch readies)
//!
//! `replay` exits non-zero iff the scenario still violates an oracle, and
//! is deterministic: two replays of one artifact print identical output.

use simcheck::artifact::{read_artifact, replay_command, write_artifact};
use simcheck::{run_scenario, Scenario};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("replay") => replay(args.get(1).map(String::as_str)),
        Some("run") => run(&args[1..], Scenario::generate, "seeds"),
        Some("secure") => run(&args[1..], Scenario::generate_secure, "secure seeds"),
        Some("recover") => run(&args[1..], Scenario::generate_recovery, "recovery seeds"),
        Some("segway") => run(&args[1..], Scenario::generate_segway, "segway seeds"),
        _ => {
            eprintln!(
                "usage: simcheck replay <artifact.json> | simcheck run [count] [--start N] \
                 | simcheck secure [count] [--start N] | simcheck recover [count] [--start N] \
                 | simcheck segway [count] [--start N]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn replay(path: Option<&str>) -> i32 {
    let Some(path) = path else {
        eprintln!("usage: simcheck replay <artifact.json>");
        return 2;
    };
    let path = std::path::Path::new(path);
    let (scenario, recorded) = match read_artifact(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simcheck: {e}");
            return 2;
        }
    };
    println!("replaying scenario seed {:#x}:", scenario.seed);
    println!("{}", scenario.to_json());
    let out = run_scenario(&scenario);
    println!("{}", out.report);
    if out.violations.is_empty() {
        println!("replay: all oracles passed");
        if !recorded.is_empty() {
            println!(
                "note: the artifact recorded {} violation(s) — the bug it \
                 reproduced appears fixed",
                recorded.len()
            );
        }
        0
    } else {
        for v in &out.violations {
            println!("replay violation: {v}");
        }
        1
    }
}

fn run(args: &[String], generate: fn(u64) -> Scenario, what: &str) -> i32 {
    let mut count = 256usize;
    let mut start = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--start" {
            start = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--start needs a number");
        } else if let Ok(n) = a.parse() {
            count = n;
        }
    }
    let mut failures = 0usize;
    for i in 0..count {
        let seed = start + i as u64;
        if let Some(failure) = simcheck::check_scenario(generate(seed)) {
            failures += 1;
            let path = std::env::temp_dir().join(format!("simcheck-{seed:#x}.json"));
            if write_artifact(&path, &failure.shrunk, &failure.violations).is_ok() {
                eprintln!("seed {seed:#x}: FAILED — {}", failure.violations[0]);
                eprintln!("  shrunk to {} flow(s), {} fault(s); replay with:",
                    failure.shrunk.flows.len(),
                    failure.shrunk.faults.len());
                eprintln!("  {}", replay_command(&path));
            }
        } else if (i + 1) % 64 == 0 {
            summary(seed, &generate(seed));
            eprintln!("  ... {}/{count} {what} explored, {failures} failures", i + 1);
        }
    }
    println!("explored {count} {what} from {start}: {failures} failure(s)");
    if failures > 0 {
        1
    } else {
        0
    }
}

fn summary(seed: u64, s: &Scenario) {
    eprintln!(
        "seed {seed:#x}: {} racks, {} domains, {}/{:?}, {} flows, {} faults",
        s.racks,
        s.domains,
        s.mode.key(),
        s.scheduler,
        s.flows.len(),
        s.faults.len()
    );
}
