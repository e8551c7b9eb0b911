//! Replay artifacts: a failing (shrunk) scenario serialized to canonical
//! JSON via `substrate::ser`, plus the violations observed, so the
//! `simcheck` binary in the bench crate can re-execute it bit-identically:
//!
//! ```text
//! cargo run -q --offline -p bench --bin simcheck -- replay <file>
//! ```
//!
//! The seed is stored as a hex *string*: `JsonValue` numbers are `f64`,
//! which cannot represent every `u64` exactly, and the seed must round-trip
//! losslessly or the replay is a different universe.

use crate::scenario::{Fault, FlowPlan, Scenario, SchedTag};
use crate::Violation;
use cicero_core::config::Mode;
use substrate::ser::JsonValue;

fn num(n: u64) -> JsonValue {
    JsonValue::Num(n as f64)
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

impl Scenario {
    /// Canonical JSON form (field order fixed, so equal scenarios render
    /// to equal strings — the diversity and determinism tests rely on it).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("seed", JsonValue::Str(format!("{:#x}", self.seed))),
            ("racks", num(self.racks as u64)),
            ("edges", num(self.edges as u64)),
            ("hosts_per_rack", num(self.hosts_per_rack as u64)),
            ("domains", num(self.domains as u64)),
            ("mode", JsonValue::Str(self.mode.key().into())),
            ("scheduler", JsonValue::Str(self.scheduler.name().into())),
            (
                "controllers_per_domain",
                num(self.controllers_per_domain as u64),
            ),
            (
                "flows",
                JsonValue::Array(
                    self.flows
                        .iter()
                        .map(|f| {
                            JsonValue::object([
                                ("src", num(f.src as u64)),
                                ("dst", num(f.dst as u64)),
                                ("bytes", num(f.bytes)),
                                ("start_ms", num(f.start_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "denied",
                JsonValue::Array(
                    self.denied
                        .iter()
                        .map(|&(a, b)| {
                            JsonValue::Array(vec![num(a as u64), num(b as u64)])
                        })
                        .collect(),
                ),
            ),
            (
                "faults",
                JsonValue::Array(self.faults.iter().map(fault_to_json).collect()),
            ),
            ("horizon_ms", num(self.horizon_ms)),
        ])
    }

    /// Inverse of [`Scenario::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Scenario, String> {
        let seed_str = get_str(v, "seed")?;
        let seed = parse_seed(seed_str)?;
        let mode = Mode::parse(get_str(v, "mode")?)
            .ok_or_else(|| format!("unknown mode `{}`", get_str(v, "mode").unwrap_or("")))?;
        let scheduler = SchedTag::parse(get_str(v, "scheduler")?).ok_or_else(|| {
            format!("unknown scheduler `{}`", get_str(v, "scheduler").unwrap_or(""))
        })?;
        let flows = v
            .get("flows")
            .and_then(JsonValue::as_array)
            .ok_or("missing `flows`")?
            .iter()
            .map(|f| {
                Ok(FlowPlan {
                    src: get_u64(f, "src")? as u32,
                    dst: get_u64(f, "dst")? as u32,
                    bytes: get_u64(f, "bytes")?,
                    start_ms: get_u64(f, "start_ms")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let denied = v
            .get("denied")
            .and_then(JsonValue::as_array)
            .ok_or("missing `denied`")?
            .iter()
            .map(|p| {
                let pair = p.as_array().ok_or("denied entry is not a pair")?;
                if pair.len() != 2 {
                    return Err("denied entry is not a pair".to_string());
                }
                let a = pair[0].as_f64().ok_or("bad denied src")? as u32;
                let b = pair[1].as_f64().ok_or("bad denied dst")? as u32;
                Ok((a, b))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let faults = v
            .get("faults")
            .and_then(JsonValue::as_array)
            .ok_or("missing `faults`")?
            .iter()
            .map(fault_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Scenario {
            seed,
            racks: get_u64(v, "racks")? as u16,
            edges: get_u64(v, "edges")? as u16,
            hosts_per_rack: get_u64(v, "hosts_per_rack")? as u16,
            domains: get_u64(v, "domains")? as u16,
            mode,
            scheduler,
            controllers_per_domain: get_u64(v, "controllers_per_domain")? as u32,
            flows,
            denied,
            faults,
            horizon_ms: get_u64(v, "horizon_ms")?,
        })
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse::<u64>()
    };
    parsed.map_err(|e| format!("bad seed `{s}`: {e}"))
}

fn fault_to_json(f: &Fault) -> JsonValue {
    match *f {
        Fault::Drop { permille } => JsonValue::object([
            ("kind", JsonValue::Str("drop".into())),
            ("permille", num(permille as u64)),
        ]),
        Fault::Duplicate { permille } => JsonValue::object([
            ("kind", JsonValue::Str("duplicate".into())),
            ("permille", num(permille as u64)),
        ]),
        Fault::CrashController {
            domain,
            controller,
            at_ms,
        } => JsonValue::object([
            ("kind", JsonValue::Str("crash".into())),
            ("domain", num(domain as u64)),
            ("controller", num(controller as u64)),
            ("at_ms", num(at_ms)),
        ]),
        Fault::CrashRecoverController {
            domain,
            controller,
            at_ms,
            after_ms,
            disk_lost,
        } => JsonValue::object([
            ("kind", JsonValue::Str("crash_recover".into())),
            ("domain", num(domain as u64)),
            ("controller", num(controller as u64)),
            ("at_ms", num(at_ms)),
            ("after_ms", num(after_ms)),
            // JsonValue has no boolean; 0/1 round-trips exactly.
            ("disk_lost", num(disk_lost as u64)),
        ]),
        Fault::SeverControllers {
            domain,
            a,
            b,
            from_ms,
            until_ms,
        } => JsonValue::object([
            ("kind", JsonValue::Str("sever_controllers".into())),
            ("domain", num(domain as u64)),
            ("a", num(a as u64)),
            ("b", num(b as u64)),
            ("from_ms", num(from_ms)),
            ("until_ms", num(until_ms)),
        ]),
        Fault::SeverUplink {
            switch,
            controller,
            from_ms,
            until_ms,
        } => JsonValue::object([
            ("kind", JsonValue::Str("sever_uplink".into())),
            ("switch", num(switch as u64)),
            ("controller", num(controller as u64)),
            ("from_ms", num(from_ms)),
            ("until_ms", num(until_ms)),
        ]),
        Fault::CrashRecoverSwitch {
            switch,
            at_ms,
            after_ms,
        } => JsonValue::object([
            ("kind", JsonValue::Str("crash_recover_switch".into())),
            ("switch", num(switch as u64)),
            ("at_ms", num(at_ms)),
            ("after_ms", num(after_ms)),
        ]),
        Fault::RogueShares {
            controller,
            victim,
            at_ms,
        } => JsonValue::object([
            ("kind", JsonValue::Str("rogue_shares".into())),
            ("controller", num(controller as u64)),
            ("victim", num(victim as u64)),
            ("at_ms", num(at_ms)),
        ]),
        Fault::RogueReady {
            switch,
            victim,
            at_ms,
        } => JsonValue::object([
            ("kind", JsonValue::Str("rogue_ready".into())),
            ("switch", num(switch as u64)),
            ("victim", num(victim as u64)),
            ("at_ms", num(at_ms)),
        ]),
    }
}

fn fault_from_json(v: &JsonValue) -> Result<Fault, String> {
    Ok(match get_str(v, "kind")? {
        "drop" => Fault::Drop {
            permille: get_u64(v, "permille")? as u32,
        },
        "duplicate" => Fault::Duplicate {
            permille: get_u64(v, "permille")? as u32,
        },
        "crash" => Fault::CrashController {
            domain: get_u64(v, "domain")? as u16,
            controller: get_u64(v, "controller")? as u32,
            at_ms: get_u64(v, "at_ms")?,
        },
        "crash_recover" => Fault::CrashRecoverController {
            domain: get_u64(v, "domain")? as u16,
            controller: get_u64(v, "controller")? as u32,
            at_ms: get_u64(v, "at_ms")?,
            after_ms: get_u64(v, "after_ms")?,
            disk_lost: get_u64(v, "disk_lost")? != 0,
        },
        "sever_controllers" => Fault::SeverControllers {
            domain: get_u64(v, "domain")? as u16,
            a: get_u64(v, "a")? as u32,
            b: get_u64(v, "b")? as u32,
            from_ms: get_u64(v, "from_ms")?,
            until_ms: get_u64(v, "until_ms")?,
        },
        "sever_uplink" => Fault::SeverUplink {
            switch: get_u64(v, "switch")? as u32,
            controller: get_u64(v, "controller")? as u32,
            from_ms: get_u64(v, "from_ms")?,
            until_ms: get_u64(v, "until_ms")?,
        },
        "crash_recover_switch" => Fault::CrashRecoverSwitch {
            switch: get_u64(v, "switch")? as u32,
            at_ms: get_u64(v, "at_ms")?,
            after_ms: get_u64(v, "after_ms")?,
        },
        "rogue_shares" => Fault::RogueShares {
            controller: get_u64(v, "controller")? as u32,
            victim: get_u64(v, "victim")? as u32,
            at_ms: get_u64(v, "at_ms")?,
        },
        "rogue_ready" => Fault::RogueReady {
            switch: get_u64(v, "switch")? as u32,
            victim: get_u64(v, "victim")? as u32,
            at_ms: get_u64(v, "at_ms")?,
        },
        other => return Err(format!("unknown fault kind `{other}`")),
    })
}

/// Renders the full artifact document.
pub fn render_artifact(scenario: &Scenario, violations: &[Violation]) -> String {
    let doc = JsonValue::object([
        ("version", num(1)),
        ("scenario", scenario.to_json()),
        (
            "violations",
            JsonValue::Array(
                violations
                    .iter()
                    .map(|v| JsonValue::Str(v.to_string()))
                    .collect(),
            ),
        ),
    ]);
    doc.to_string()
}

/// Writes a replay artifact to `path`.
pub fn write_artifact(
    path: &std::path::Path,
    scenario: &Scenario,
    violations: &[Violation],
) -> std::io::Result<()> {
    std::fs::write(path, render_artifact(scenario, violations))
}

/// Reads a replay artifact back: the scenario plus the recorded violation
/// strings (informational — the replay re-derives its own).
pub fn read_artifact(path: &std::path::Path) -> Result<(Scenario, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("parse {path:?}: {e:?}"))?;
    let scenario = Scenario::from_json(doc.get("scenario").ok_or("missing `scenario`")?)?;
    let violations = doc
        .get("violations")
        .and_then(JsonValue::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok((scenario, violations))
}

/// The command line that replays an artifact at `path`.
pub fn replay_command(path: &std::path::Path) -> String {
    format!(
        "cargo run -q --offline -p bench --bin simcheck -- replay {}",
        path.display()
    )
}
