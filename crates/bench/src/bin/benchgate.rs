//! The perf-regression gate (`scripts/verify.sh`).
//!
//! Usage:
//!   benchgate <baseline.json> <fresh.json> <suite> \
//!       [--tolerance 0.5] [--cap name=max_ns] [--cap name/div=max_ns]... \
//!       [--probe-before ns]
//!   benchgate --probe
//!
//! Compares the named suite's medians between a recorded baseline (usually
//! `BENCH_protocol.json`) and a fresh `BENCHKIT_OUT` document via
//! [`substrate::benchkit::compare_docs`]. Exits non-zero and names every
//! offender when
//!
//! * a fresh median exceeds its baseline by more than the tolerance band,
//! * a baseline entry is missing from the fresh run (a regression must not
//!   hide behind a rename), or
//! * an absolute cap is violated. A cap `batch_verify_64/64=2000000`
//!   divides the measured median by 64 first — that is how the paper-level
//!   target "amortized ≤ 2 ms per update" is enforced against a bench that
//!   times the whole batch. A suffix that is not a number names an entry
//!   of a group (`ceremonies/dkg_n4_t1=...`).
//!
//! With `--probe-before`, both are judged at reference speed. The gate
//! times a fixed probe of its own — a chain of 4-limb Montgomery
//! multiplications that calls nothing in the workspace — and divides every
//! fresh median by the host factor: the smaller of the probe's median
//! timed before the suite ran (`benchgate --probe`, passed in) and the one
//! timed now, over [`REFERENCE_PROBE_NS`], clamped at 1. A loaded shared
//! host then does not fail the gate by being slow, and a fast one does not
//! tighten it; a regression of the code is not in the probe, so it still
//! shows. The reference was calibrated against the crypto suite alone —
//! the field arithmetic the probe mimics — so only that suite's gate
//! passes `--probe-before`; every other suite is judged as measured.

use std::hint::black_box;
use std::time::Instant;
use substrate::benchkit::compare_docs;

/// The probe's median at the speed `BENCH_protocol.json` was recorded at,
/// in nanoseconds (see [`probe_ns`] for how it was calibrated).
const REFERENCE_PROBE_NS: f64 = 1_555_000.0;

/// Montgomery multiplications per probe sample.
const PROBE_STEPS: u32 = 1 << 16;

/// The probe's modulus, `2^256 − 189` (prime), as four little-endian limbs.
const PROBE_P: [u64; 4] = [u64::MAX - 188, u64::MAX, u64::MAX, u64::MAX];

/// One 4-limb Montgomery multiplication `a·b·2^-256 mod p` (CIOS), with
/// `n0 = −p^-1 mod 2^64` — the shape of the field arithmetic the crypto
/// suite spends its time in, so a host that slows one slows the other.
fn mont_mul(a: &[u64; 4], b: &[u64; 4], n0: u64) -> [u64; 4] {
    let mut t = [0u64; 6];
    for &bi in b {
        let mut carry = 0u128;
        for j in 0..4 {
            let v = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + carry;
            t[j] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[4]) + carry;
        (t[4], t[5]) = (v as u64, (v >> 64) as u64);
        let m = t[0].wrapping_mul(n0);
        let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(PROBE_P[0])) >> 64;
        for j in 1..4 {
            let v = u128::from(t[j]) + u128::from(m) * u128::from(PROBE_P[j]) + carry;
            t[j - 1] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[4]) + carry;
        t[3] = v as u64;
        t[4] = t[5] + (v >> 64) as u64;
    }
    [t[0], t[1], t[2], t[3]]
}

/// The probe's median sample time in nanoseconds: 21 samples of a chain
/// of [`PROBE_STEPS`] multiplications, calling nothing in the workspace.
/// [`REFERENCE_PROBE_NS`] is this probe's median divided by the crypto
/// suite's geometric-mean slowdown against `BENCH_protocol.json` over its
/// untouched entries, measured back to back on the same host; it holds for
/// that suite only.
fn probe_ns() -> f64 {
    // n0 by Newton iteration on the inverse of p modulo 2^64.
    let mut inv: u64 = 1;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(PROBE_P[0].wrapping_mul(inv)));
    }
    let n0 = inv.wrapping_neg();
    let mut samples: Vec<f64> = (0..21)
        .map(|i| {
            let start = Instant::now();
            let mut x = black_box([0x1234_5678_9abc_def0 ^ i, 2, 3, 4]);
            let y = black_box([5, 6, 7, 8]);
            for _ in 0..PROBE_STEPS {
                x = mont_mul(&x, &y, n0);
            }
            black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Cap {
    name: String,
    divisor: f64,
    max_ns: f64,
}

fn parse_cap(spec: &str) -> Result<Cap, String> {
    let (lhs, max) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad --cap {spec:?}: expected name[=/div]=max_ns"))?;
    let max_ns: f64 = max
        .parse()
        .map_err(|_| format!("bad --cap {spec:?}: max_ns is not a number"))?;
    // A suffix that is not a number is part of a group entry's name
    // (`ceremonies/dkg_n4_t1`), not a divisor.
    let divided = lhs.rsplit_once('/').and_then(|(n, d)| Some((n, d.parse::<f64>().ok()?)));
    let (name, divisor) = match divided {
        Some((n, d)) => (n.to_owned(), d),
        None => (lhs.to_owned(), 1.0),
    };
    Ok(Cap {
        name,
        divisor,
        max_ns,
    })
}

fn fmt_ms(ns: f64) -> String {
    format!("{:.3} ms", ns / 1_000_000.0)
}

fn run(args: &[String]) -> Result<i32, String> {
    let mut positional = Vec::new();
    let mut tolerance = 0.5_f64;
    let mut caps = Vec::new();
    let mut probe_before = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                tolerance = v
                    .parse()
                    .map_err(|_| format!("bad --tolerance {v:?}"))?;
            }
            "--cap" => {
                let v = it.next().ok_or("--cap needs a value")?;
                caps.push(parse_cap(v)?);
            }
            "--probe-before" => {
                let v = it.next().ok_or("--probe-before needs a value")?;
                let ns: f64 = v.parse().map_err(|_| format!("bad --probe-before {v:?}"))?;
                probe_before = Some(ns);
            }
            _ => positional.push(a.clone()),
        }
    }
    if positional == ["--probe"] {
        println!("{:.0}", probe_ns());
        return Ok(0);
    }
    let [baseline_path, fresh_path, suite] = positional.as_slice() else {
        return Err("usage: benchgate <baseline.json> <fresh.json> <suite> \
                    [--tolerance T] [--cap name[/div]=max_ns]..."
            .into());
    };
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh =
        std::fs::read_to_string(fresh_path).map_err(|e| format!("{fresh_path}: {e}"))?;
    let mut report = compare_docs(&baseline, &fresh, suite)?;
    if let Some(before) = probe_before {
        let probe = before.min(probe_ns());
        let factor = (probe / REFERENCE_PROBE_NS).max(1.0);
        println!(
            "benchgate: host probe {} against {} at reference speed: fresh medians / {factor:.2}",
            fmt_ms(probe),
            fmt_ms(REFERENCE_PROBE_NS)
        );
        for c in &mut report.compared {
            c.fresh_ns /= factor;
        }
    }

    let mut failures = Vec::new();
    println!(
        "benchgate: suite {suite:?}, {} entries, tolerance +{:.0}%",
        report.compared.len(),
        tolerance * 100.0
    );
    for c in &report.compared {
        let flag = if c.regressed(tolerance) { "  REGRESSED" } else { "" };
        println!(
            "  {:<32} {:>12} -> {:>12}  ({:.2}x){flag}",
            c.name,
            fmt_ms(c.baseline_ns),
            fmt_ms(c.fresh_ns),
            c.ratio()
        );
        if c.regressed(tolerance) {
            failures.push(format!(
                "{}: {} -> {} exceeds the +{:.0}% band",
                c.name,
                fmt_ms(c.baseline_ns),
                fmt_ms(c.fresh_ns),
                tolerance * 100.0
            ));
        }
    }
    for name in &report.missing_in_fresh {
        failures.push(format!("{name}: present in baseline, missing from fresh run"));
    }
    for name in &report.new_in_fresh {
        println!("  {name:<32} (new — not in baseline; refresh the baseline)");
    }
    for cap in &caps {
        match report.compared.iter().find(|c| c.name == cap.name) {
            Some(c) => {
                let effective = c.fresh_ns / cap.divisor;
                let what = if cap.divisor == 1.0 {
                    cap.name.clone()
                } else {
                    format!("{}/{}", cap.name, cap.divisor)
                };
                println!(
                    "  cap {:<28} {:>12} <= {:>12}{}",
                    what,
                    fmt_ms(effective),
                    fmt_ms(cap.max_ns),
                    if effective > cap.max_ns { "  VIOLATED" } else { "" }
                );
                if effective > cap.max_ns {
                    failures.push(format!(
                        "{what}: {} exceeds the absolute cap {}",
                        fmt_ms(effective),
                        fmt_ms(cap.max_ns)
                    ));
                }
            }
            None => failures.push(format!(
                "cap {}: no such entry in the fresh run",
                cap.name
            )),
        }
    }
    if failures.is_empty() {
        println!("benchgate: OK");
        Ok(0)
    } else {
        eprintln!("benchgate: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        Ok(1)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchgate: {e}");
            std::process::exit(2);
        }
    }
}
