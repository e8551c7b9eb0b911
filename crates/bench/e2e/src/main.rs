//! `bench-e2e` — the end-to-end benchmark of the assembled system: real
//! threads and real crypto (`cicero-node`), the simulator (`Engine`), and
//! the fuzzer (`simcheck`), each measured from outside through its public
//! functions. See `README.md` beside this package for the metric glossary,
//! the workloads and the predictions; `run.sh` builds and runs it.

#![forbid(unsafe_code)]

mod calib;
mod flows;
mod metrics;
mod node;
mod reduce;
mod report;
mod sim;
mod trace;
mod units;
mod window;

use cicero_core::config::{Aggregation, Mode};
use flows::Pairs;
use metrics::{Metrics, Outcome, END_TO_END, PER_LAYER};
use node::NodeWorkload;
use std::path::{Path, PathBuf};
use substrate::ser::JsonValue;
use trace::Tracer;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed: the inputs are a pure function of it.
    pub seed: u64,
    /// Length of the measuring window in seconds.
    pub seconds: f64,
    /// Smoke-test sizes: 8 flows, 64 seeds, 200 simulated flows.
    pub quick: bool,
}

/// How a workload is executed.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Node(NodeWorkload),
    SimFabric,
    FuzzSweep,
}

impl Kind {
    /// What one *op* (the thing `op_ms_*` times) is on this workload.
    fn op(&self) -> &'static str {
        match self {
            Kind::Node(_) => "flow set-up, inject -> FlowCompleted",
            Kind::SimFabric => {
                "one round: a Cicero and a Segway Engine::run of the same 1000 flows"
            }
            Kind::FuzzSweep => "one scenario generated, run and judged",
        }
    }

    /// What one *unit* (the thing `units_per_s` and `cpu_ms_per_unit`
    /// count) is on this workload.
    fn unit(&self) -> &'static str {
        match self {
            Kind::Node(_) => "applied update",
            Kind::SimFabric => "delivered simulator message",
            Kind::FuzzSweep => "seed judged",
        }
    }

    /// The name the issue text gives a generic end-to-end metric on this
    /// workload.
    fn alias(&self, metric: &str) -> Option<&'static str> {
        match (self, metric) {
            (Kind::Node(_), "op_ms_p50") => Some("flow_ms_p50"),
            (Kind::Node(_), "units_per_s") => Some("updates_per_s"),
            (Kind::Node(_), "cpu_ms_per_unit") => Some("cpu_ms_per_update"),
            (Kind::SimFabric, "units_per_s") => Some("sim_events_per_s"),
            (Kind::FuzzSweep, "units_per_s") => Some("seeds_per_s"),
            _ => None,
        }
    }
}

struct Workload {
    name: &'static str,
    kind: Kind,
}

const CICERO: Mode = Mode::Cicero {
    aggregation: Aggregation::Switch,
};
const CICERO_AGG: Mode = Mode::Cicero {
    aggregation: Aggregation::Controller,
};

const fn node(name: &'static str, mode: Mode, pairs: Pairs, w: usize) -> Workload {
    Workload {
        name,
        kind: Kind::Node(NodeWorkload { mode, pairs, w }),
    }
}

/// The workloads, in the order they run; why each exists is in the
/// README. The first four are the ones `BENCHMARK.json` lists: the driver's
/// time budget holds four windows long enough to be steady on a host whose
/// speed swings. The rest run from `run.sh` only. Two cross-pod flows in
/// flight already put a two-core host past `retry_base` and into the
/// retransmission storm, a regime that is documented and not gated, which
/// is why the gated cross-pod workloads are the serial ones.
const WORKLOADS: [Workload; 9] = [
    node("serial_cicero", CICERO, Pairs::CrossPod, 1),
    node("serial_agg", CICERO_AGG, Pairs::CrossPod, 1),
    node("serial_segway", Mode::Segway, Pairs::CrossPod, 1),
    Workload {
        name: "fuzz_sweep",
        kind: Kind::FuzzSweep,
    },
    node("local_cicero", CICERO, Pairs::IntraPod, 2),
    Workload {
        name: "sim_fabric",
        kind: Kind::SimFabric,
    },
    node("loaded_cicero", CICERO, Pairs::CrossPod, 2),
    node("loaded_agg", CICERO_AGG, Pairs::CrossPod, 2),
    node("loaded_segway", Mode::Segway, Pairs::CrossPod, 2),
];

/// How many of [`WORKLOADS`], from the front, `BENCHMARK.json` lists.
#[cfg(test)]
const GATED: usize = 4;

/// Which passes a run makes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

struct Args {
    workload: Option<String>,
    cfg: RunCfg,
    passes: Passes,
    sets: usize,
    out: PathBuf,
    benchmark: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "\
bench-e2e [--workload NAME] [--seed S] [--seconds N] [--trace 0|1|DIR]
          [--quick] [--sets K] [--out DIR]
bench-e2e --compare A.json B.json [--benchmark BENCHMARK.json]

  --workload NAME  run one workload (default: all nine)
  --seed S         workload seed (default 1)
  --seconds N      measuring window per pass (default 10)
  --trace 0        untraced pass only: end-to-end metrics
  --trace 1        traced pass only: per-layer metrics, span file in --out
  --trace DIR      both passes, span files in DIR (the default, DIR = --out)
  --quick          8 flows, 64 seeds, 200 simulated flows; one (traced) pass
                   unless --trace says otherwise
  --sets K         repeat everything K times into one result file
  --out DIR        where result and span files go (default target/e2e)
  --compare A B    judge result file B against A with the bounds in
                   BENCHMARK.json; exit 1 on a regression
";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        cfg: RunCfg {
            seed: 1,
            seconds: 10.0,
            quick: false,
        },
        passes: Passes::Both,
        sets: 1,
        out: PathBuf::from("target/e2e"),
        benchmark: PathBuf::from("BENCHMARK.json"),
        compare: None,
    };
    let mut trace_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => match value("0, 1 or a directory")?.as_str() {
                "0" => a.passes = Passes::Untraced,
                "1" => a.passes = Passes::Traced,
                dir => trace_dir = Some(PathBuf::from(dir)),
            },
            "--quick" => a.cfg.quick = true,
            "--sets" => {
                a.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--benchmark" => a.benchmark = PathBuf::from(value("a file")?),
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n\n{USAGE}")),
        }
    }
    if let Some(dir) = trace_dir {
        a.out = dir;
    } else if a.cfg.quick && a.passes == Passes::Both {
        // A smoke run makes one pass; the traced one prints everything.
        a.passes = Passes::Traced;
    }
    if !(a.cfg.seconds > 0.0 && a.cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Executes one pass of one workload.
fn execute(kind: &Kind, cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    match kind {
        Kind::Node(wl) => node::run(wl, cfg, tr),
        Kind::SimFabric => sim::run_sim_fabric(cfg, tr),
        Kind::FuzzSweep => sim::run_fuzz_sweep(cfg, tr),
    }
}

fn print_gate(o: &Outcome) {
    println!(
        "  ops {}  failed_ops {}  correct {}",
        o.attempted,
        o.failed,
        o.correct()
    );
    for f in &o.faults {
        println!("  FAULT: {f}");
    }
    for f in &o.findings {
        println!("  finding: {f}");
    }
}

/// Runs the requested passes of one workload, prints every metric by name
/// with its unit, writes the span file of a traced pass, and returns the
/// result object.
fn run_workload(
    w: &Workload,
    args: &Args,
    unit_costs: &mut Option<Metrics>,
) -> Result<JsonValue, String> {
    let cfg = &args.cfg;
    println!(
        "== {} (seed {}, {} s window{}) — op: {}; unit: {}",
        w.name,
        cfg.seed,
        cfg.seconds,
        if cfg.quick { ", quick" } else { "" },
        w.kind.op(),
        w.kind.unit()
    );
    let mut untraced = None;
    if args.passes != Passes::Traced {
        let o = execute(&w.kind, cfg, &mut Tracer::new(false));
        println!(" untraced pass");
        report::print_metrics(END_TO_END, &o.e2e, |m| w.kind.alias(m));
        print_gate(&o);
        untraced = Some(o);
    }
    let mut traced = None;
    if args.passes != Passes::Untraced {
        let mut tr = Tracer::new(true);
        let mut o = execute(&w.kind, cfg, &mut tr);
        // The unit costs do not depend on the workload: replay them once
        // per invocation, under the first traced pass.
        let units = unit_costs
            .get_or_insert_with(|| units::replay(&mut tr))
            .clone();
        // The measured share of "crypto is the floor": CPU per unit of
        // work in units of one signature verification.
        let verify_ms = units.get("blscrypto.verify_us").copied().unwrap_or(0.0) / 1e3;
        // Both sides as the clock read them, within seconds of each other.
        let raw_cpu = o.layers.get("bench.window_cpu_ms_per_unit").copied();
        if let (Kind::Node(_), Some(cpu)) = (&w.kind, raw_cpu) {
            if verify_ms > 0.0 {
                o.layers
                    .insert("core.verify_equiv_per_update", cpu / verify_ms);
            }
        }
        o.layers.extend(units);
        let spans = args
            .out
            .join(format!("spans-{}-seed{}.json", w.name, cfg.seed));
        write_file(&spans, &tr.to_json().to_string())?;
        println!(
            " traced pass ({} spans -> {})",
            tr.spans().len(),
            spans.display()
        );
        if untraced.is_none() {
            report::print_metrics(END_TO_END, &o.e2e, |m| w.kind.alias(m));
        }
        report::print_metrics(PER_LAYER, &o.layers, |_| None);
        print_gate(&o);
        traced = Some(o);
    }
    Ok(match (&untraced, &traced) {
        (Some(u), None) => report::result_json(u, Some(&u.e2e), None, &[]),
        (None, Some(t)) => report::result_json(t, None, Some(&t.layers), &[]),
        (Some(u), Some(t)) => {
            let rate = |m: &Metrics| m.get("units_per_s").copied().unwrap_or(0.0);
            let share = (rate(&u.e2e) - rate(&t.e2e)) / rate(&u.e2e).max(f64::MIN_POSITIVE);
            println!("  {:<44} {share:>16.4} share", "trace_overhead_share");
            let mut gate = u.clone();
            gate.failed += t.failed;
            gate.faults.extend(t.faults.iter().cloned());
            report::result_json(
                &gate,
                Some(&u.e2e),
                Some(&t.layers),
                &[("trace_overhead_share", share, "share")],
            )
        }
        (None, None) => unreachable!("at least one pass runs"),
    })
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let (report, ok) =
            report::compare(&read_json(&args.benchmark)?, &read_json(a)?, &read_json(b)?);
        print!("{report}");
        return Ok(ok);
    }
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })?],
        None => WORKLOADS.iter().collect(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::env::var("E2E_RUSTC").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "bench-e2e: nproc {nproc}, {rustc}, seed {}; in-process links add no delay, \
         so latencies are processor and scheduling time only",
        args.cfg.seed
    );

    let mut sets = Vec::new();
    let mut unit_costs = None;
    let mut last = JsonValue::Null;
    let mut ok = true;
    for _ in 0..args.sets.max(1) {
        let mut set = Vec::new();
        for w in &selected {
            last = run_workload(w, args, &mut unit_costs)?;
            ok &= last.get("correct") == Some(&JsonValue::Bool(true));
            set.push((w.name.to_string(), last.clone()));
        }
        sets.push(JsonValue::Object(set));
    }

    if args.workload.is_none() {
        let results = JsonValue::object([
            (
                "meta",
                JsonValue::object([
                    ("nproc", JsonValue::Num(nproc as f64)),
                    ("rustc", JsonValue::Str(rustc)),
                    ("seed", JsonValue::Num(args.cfg.seed as f64)),
                    ("seconds", JsonValue::Num(args.cfg.seconds)),
                    ("quick", JsonValue::Bool(args.cfg.quick)),
                ]),
            ),
            ("sets", JsonValue::Array(sets)),
        ]);
        let path = args.out.join(format!("results-seed{}.json", args.cfg.seed));
        write_file(&path, &results.to_string())?;
        println!("results -> {}", path.display());
    } else {
        // The one-workload protocol: the result object is the last line.
        println!("{last}");
    }
    Ok(ok)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list the gated workloads and exactly the
    /// catalogue of `metrics.rs`, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
        let bench = read_json(&path).expect("BENCHMARK.json at the repository root");
        let list = |key: &str| -> Vec<JsonValue> {
            bench
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("a list")
                .to_vec()
        };
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let gated: Vec<&str> = WORKLOADS[..GATED].iter().map(|w| w.name).collect();
        assert_eq!(names, gated);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, bool)> = list(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better") == "higher")
                })
                .collect();
            let ours: Vec<(String, String, bool)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_is_better))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
