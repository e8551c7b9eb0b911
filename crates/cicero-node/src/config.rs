//! Deployment specification for the threaded runtime, parsed from a JSON
//! config file (see `examples/node_two_domains.json`).
//!
//! The spec is deliberately small: a pod-partitioned topology (one domain
//! per pod), a protocol mode, a seed, and a synthetic cross-pod workload.
//! Everything else comes from [`EngineConfig`] defaults so a threaded
//! deployment and a simulated one are configured identically.

use cicero_core::config::{Aggregation, CryptoMode, EngineConfig, Mode};
use controller::policy::DomainMap;
use netmodel::topology::Topology;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{FlowId, HostId};
use std::collections::BTreeMap;
use substrate::ser::JsonValue;
use workload::gen::FlowSpec;
use workload::spec::LocalityClass;

/// The `cicero-node --help` text.
pub const USAGE: &str = "\
cicero-node — run a multi-domain Cicero deployment on real threads

USAGE:
    cicero-node <config.json>
    cicero-node --help

The config is a JSON object; every key is optional (defaults in
parentheses):

    mode                    \"centralized\" | \"crash-tolerant\" |
                            \"cicero\" | \"cicero-agg\" |
                            \"segway\"                       (\"cicero\")
    crypto                  \"modeled\" | \"real\"             (\"modeled\")
    pods                    pods, one protocol domain each       (2)
    racks_per_pod           ToR switches per pod                 (2)
    edges_per_pod           aggregation switches per pod         (2)
    hosts_per_rack          hosts per ToR                        (2)
    spines                  spine switches joining the pods      (2)
    controllers_per_domain  Cicero needs at least 4              (4)
    seed                    engine seed                          (1)
    flows                   cross-pod flows to inject            (8)
    flow_bytes              bytes per flow                       (40000)
    budget_ms               wall-clock convergence budget        (8000)
    state_dir               durable WAL/snapshot directory    (in-memory)
    kill_at_ms              kill one controller at this offset   (never)
    restart_at_ms           restart it at this offset            (never)
    disk_lost               wipe its WAL before the restart      (false)

EXAMPLES:
    cicero-node examples/node_two_domains.json
    cicero-node examples/node_recovery.json
";

/// A parsed deployment spec.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Protocol mode (`"centralized"`, `"crash-tolerant"`, `"cicero"`,
    /// `"cicero-agg"`, `"segway"`).
    pub mode: Mode,
    /// Crypto execution (`"modeled"` or `"real"`).
    pub crypto: CryptoMode,
    /// Pods; one protocol domain each.
    pub pods: u16,
    /// Racks (ToR switches) per pod.
    pub racks_per_pod: u16,
    /// Edge/aggregation switches per pod.
    pub edges_per_pod: u16,
    /// Hosts per rack.
    pub hosts_per_rack: u16,
    /// Spine switches joining the pods.
    pub spines: u16,
    /// Controllers per domain (Cicero needs ≥ 4).
    pub controllers_per_domain: u32,
    /// Engine seed (actor construction, per-node RNG streams).
    pub seed: u64,
    /// Cross-pod flows to inject.
    pub flows: usize,
    /// Bytes per flow.
    pub flow_bytes: u64,
    /// Wall-clock convergence budget in milliseconds.
    pub budget_ms: u64,
    /// Directory for durable controller state (WAL + snapshots); `None`
    /// keeps state in memory (still crash-recoverable within the process).
    /// Cleared at launch: each invocation is a fresh cluster incarnation
    /// (its own key ceremony), so only in-run restarts replay this state.
    pub state_dir: Option<String>,
    /// Kill one controller this many wall-clock ms after injection.
    pub kill_at_ms: Option<u64>,
    /// Restart the killed controller this many wall-clock ms after
    /// injection (requires `kill_at_ms`, and must be later).
    pub restart_at_ms: Option<u64>,
    /// Wipe the victim's WAL/snapshot before restarting (replacement
    /// machine): it must state-sync from a peer instead of replaying its
    /// local log. Requires `restart_at_ms`.
    pub disk_lost: bool,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            mode: Mode::Cicero {
                aggregation: Aggregation::Switch,
            },
            crypto: CryptoMode::Modeled,
            pods: 2,
            racks_per_pod: 2,
            edges_per_pod: 2,
            hosts_per_rack: 2,
            spines: 2,
            controllers_per_domain: 4,
            seed: 1,
            flows: 8,
            flow_bytes: 40_000,
            budget_ms: 8_000,
            state_dir: None,
            kill_at_ms: None,
            restart_at_ms: None,
            disk_lost: false,
        }
    }
}

fn get_u64(doc: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .filter(|f| *f >= 0.0 && f.fract() == 0.0)
            .map(|f| f as u64)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn get_opt_u64(doc: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|f| *f >= 0.0 && f.fract() == 0.0)
            .map(|f| Some(f as u64))
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

impl NodeSpec {
    /// Parses a spec from JSON text. Unknown keys are rejected so a typo'd
    /// config fails loudly instead of silently running defaults.
    pub fn from_json(text: &str) -> Result<NodeSpec, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("config parse error: {e:?}"))?;
        const KNOWN: &[&str] = &[
            "mode",
            "crypto",
            "pods",
            "racks_per_pod",
            "edges_per_pod",
            "hosts_per_rack",
            "spines",
            "controllers_per_domain",
            "seed",
            "flows",
            "flow_bytes",
            "budget_ms",
            "state_dir",
            "kill_at_ms",
            "restart_at_ms",
            "disk_lost",
        ];
        if let JsonValue::Object(pairs) = &doc {
            for (k, _) in pairs {
                if !KNOWN.contains(&k.as_str()) {
                    return Err(format!("unknown config key `{k}`"));
                }
            }
        } else {
            return Err("config must be a JSON object".to_string());
        }
        let d = NodeSpec::default();
        let mode = match doc.get("mode").and_then(|v| v.as_str()) {
            None => d.mode,
            // Config files hyphenate (`crash-tolerant`); `Mode::key` does not.
            Some(name) => Mode::parse(&name.replace('-', "_"))
                .ok_or_else(|| format!("unknown mode `{name}`"))?,
        };
        let crypto = match doc.get("crypto").and_then(|v| v.as_str()) {
            None => d.crypto,
            Some("modeled") => CryptoMode::Modeled,
            Some("real") => CryptoMode::Real,
            Some(other) => return Err(format!("unknown crypto mode `{other}`")),
        };
        let spec = NodeSpec {
            mode,
            crypto,
            pods: get_u64(&doc, "pods", d.pods as u64)? as u16,
            racks_per_pod: get_u64(&doc, "racks_per_pod", d.racks_per_pod as u64)? as u16,
            edges_per_pod: get_u64(&doc, "edges_per_pod", d.edges_per_pod as u64)? as u16,
            hosts_per_rack: get_u64(&doc, "hosts_per_rack", d.hosts_per_rack as u64)? as u16,
            spines: get_u64(&doc, "spines", d.spines as u64)? as u16,
            controllers_per_domain: get_u64(
                &doc,
                "controllers_per_domain",
                d.controllers_per_domain as u64,
            )? as u32,
            seed: get_u64(&doc, "seed", d.seed)?,
            flows: get_u64(&doc, "flows", d.flows as u64)? as usize,
            flow_bytes: get_u64(&doc, "flow_bytes", d.flow_bytes)?,
            budget_ms: get_u64(&doc, "budget_ms", d.budget_ms)?,
            state_dir: match doc.get("state_dir") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| "`state_dir` must be a string".to_string())?
                        .to_string(),
                ),
            },
            kill_at_ms: get_opt_u64(&doc, "kill_at_ms")?,
            restart_at_ms: get_opt_u64(&doc, "restart_at_ms")?,
            disk_lost: match doc.get("disk_lost") {
                None => false,
                Some(JsonValue::Bool(b)) => *b,
                Some(_) => return Err("`disk_lost` must be a boolean".to_string()),
            },
        };
        if spec.pods == 0 || spec.racks_per_pod == 0 || spec.hosts_per_rack == 0 {
            return Err("pods, racks_per_pod and hosts_per_rack must be ≥ 1".to_string());
        }
        match (spec.kill_at_ms, spec.restart_at_ms) {
            (None, Some(_)) => {
                return Err("`restart_at_ms` requires `kill_at_ms`".to_string());
            }
            (Some(k), Some(r)) if r <= k => {
                return Err("`restart_at_ms` must be after `kill_at_ms`".to_string());
            }
            _ => {}
        }
        if spec.disk_lost && spec.restart_at_ms.is_none() {
            return Err("`disk_lost` requires `restart_at_ms`".to_string());
        }
        Ok(spec)
    }

    /// The engine configuration for this spec.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::for_mode(self.mode);
        cfg.crypto = self.crypto;
        cfg.seed = self.seed;
        if self.mode != Mode::Centralized {
            cfg.controllers_per_domain = self.controllers_per_domain;
        }
        cfg
    }

    /// The topology: `pods` pods joined by `spines` spine switches.
    pub fn topology(&self) -> Topology {
        Topology::multi_pod(
            self.pods,
            self.racks_per_pod,
            self.edges_per_pod,
            self.hosts_per_rack,
            self.spines,
        )
    }

    /// One domain per pod.
    pub fn domain_map(&self, topo: &Topology) -> DomainMap {
        DomainMap::by_pod(topo)
    }

    /// The wall-clock convergence budget.
    pub fn budget(&self) -> SimDuration {
        SimDuration::from_millis(self.budget_ms)
    }

    /// A deterministic cross-pod workload: every flow has a unique
    /// `(src, dst)` pair with source and destination in different pods, so
    /// each flow raises exactly one distinct `PacketIn` per ingress switch
    /// under rule reuse — the property the sim-vs-threads equivalence check
    /// relies on. Starts are staggered 2 ms apart (simulated runs honor the
    /// stagger; a threaded deployment injects at wall-clock arrival).
    pub fn workload(&self, topo: &Topology) -> Vec<FlowSpec> {
        let mut by_pod: BTreeMap<u16, Vec<HostId>> = BTreeMap::new();
        for h in topo.hosts() {
            by_pod.entry(h.loc.pod).or_default().push(h.id);
        }
        let pods: Vec<Vec<HostId>> = by_pod.into_values().collect();
        let p = pods.len();
        let per_pod = pods.iter().map(Vec::len).min().unwrap_or(0);
        let mut flows = Vec::new();
        if p < 2 || per_pod == 0 {
            return flows;
        }
        'outer: for shift in 0..per_pod {
            for i in 0..per_pod {
                for src_pod in 0..p {
                    if flows.len() >= self.flows {
                        break 'outer;
                    }
                    let dst_pod = (src_pod + 1) % p;
                    let n = flows.len();
                    flows.push(FlowSpec {
                        id: FlowId(n as u64 + 1),
                        src: pods[src_pod][i],
                        dst: pods[dst_pod][(i + shift) % per_pod],
                        bytes: self.flow_bytes,
                        start: SimTime::ZERO + SimDuration::from_millis(2).saturating_mul(n as u64),
                        locality: LocalityClass::IntraDc,
                    });
                }
            }
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_and_workload_pairs_are_unique() {
        let spec = NodeSpec::from_json("{}").expect("empty object is all defaults");
        assert_eq!(spec.pods, 2);
        let topo = spec.topology();
        let flows = spec.workload(&topo);
        assert_eq!(flows.len(), spec.flows);
        let mut pairs: Vec<(HostId, HostId)> = flows.iter().map(|f| (f.src, f.dst)).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), flows.len(), "all (src,dst) pairs unique");
        for f in &flows {
            let sp = topo.host(f.src).expect("known host").loc.pod;
            let dp = topo.host(f.dst).expect("known host").loc.pod;
            assert_ne!(sp, dp, "every flow crosses pods");
        }
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(NodeSpec::from_json(r#"{"podz": 2}"#).is_err());
        assert!(NodeSpec::from_json(r#"{"mode": "quantum"}"#).is_err());
        assert!(NodeSpec::from_json(r#"{"seed": -1}"#).is_err());
        assert!(NodeSpec::from_json(r#"{"pods": 0}"#).is_err());
        assert!(NodeSpec::from_json("[]").is_err());
    }

    #[test]
    fn crash_recovery_keys_parse_and_validate() {
        let s = NodeSpec::from_json(
            r#"{"state_dir": "/tmp/x", "kill_at_ms": 100, "restart_at_ms": 400}"#,
        )
        .expect("valid recovery spec");
        assert_eq!(s.state_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(s.kill_at_ms, Some(100));
        assert_eq!(s.restart_at_ms, Some(400));
        // A restart without a kill, or before it, is a config error.
        assert!(NodeSpec::from_json(r#"{"restart_at_ms": 400}"#).is_err());
        assert!(
            NodeSpec::from_json(r#"{"kill_at_ms": 400, "restart_at_ms": 100}"#).is_err()
        );
        assert!(NodeSpec::from_json(r#"{"state_dir": 3}"#).is_err());
        let wiped = NodeSpec::from_json(
            r#"{"kill_at_ms": 100, "restart_at_ms": 400, "disk_lost": true}"#,
        )
        .expect("valid disk-lost spec");
        assert!(wiped.disk_lost);
        // A wiped disk without a restart never recovers: config error.
        assert!(NodeSpec::from_json(r#"{"disk_lost": true}"#).is_err());
        assert!(NodeSpec::from_json(
            r#"{"kill_at_ms": 100, "restart_at_ms": 400, "disk_lost": 1}"#
        )
        .is_err());
    }

    #[test]
    fn mode_strings_parse() {
        let c = NodeSpec::from_json(r#"{"mode": "cicero-agg", "crypto": "real"}"#)
            .expect("valid spec");
        assert_eq!(
            c.mode,
            Mode::Cicero {
                aggregation: Aggregation::Controller
            }
        );
        assert_eq!(c.crypto, CryptoMode::Real);
    }

    #[test]
    fn help_lists_every_accepted_mode() {
        for mode in Mode::ALL {
            let name = mode.key().replace('_', "-");
            for spelling in [name.as_str(), mode.key()] {
                let spec = NodeSpec::from_json(&format!(r#"{{"mode": "{spelling}"}}"#))
                    .expect("accepted");
                assert_eq!(spec.mode, mode);
            }
            assert!(USAGE.contains(&format!("\"{name}\"")), "--help omits mode {name}");
        }
    }
}