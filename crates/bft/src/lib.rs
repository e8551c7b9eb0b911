//! # bft — PBFT-style atomic broadcast (the paper's BFT-SMaRt stand-in)
//!
//! Cicero broadcasts every data-plane event through an atomic broadcast so
//! all controllers process events in the same order (paper §3.2, "event
//! broadcast – controller agreement"). The paper uses the BFT-SMaRt
//! library; this crate reimplements the primitive as a **sans-io PBFT state
//! machine** ([`replica::Replica`]) so it can run inside simulated
//! controller actors and be tested under adversarial schedules.
//!
//! Guarantees (standard atomic broadcast, for `n = 3f + 1` replicas of which
//! at most `f` are Byzantine):
//!
//! * **Agreement / total order** — correct replicas deliver the same
//!   payloads in the same sequence order;
//! * **Validity** — a payload submitted by a correct replica is eventually
//!   delivered (after at most a view change per faulty primary);
//! * **Integrity** — a payload is delivered at most once (digest dedup).
//!
//! ```
//! use bft::prelude::*;
//!
//! let cfg = BftConfig::new(4);
//! assert_eq!(cfg.f(), 1);
//! assert_eq!(cfg.quorum(), 3);
//! let mut primary: Replica<u64> = Replica::new(ReplicaId(0), cfg);
//! let outputs = primary.submit(42);
//! assert!(outputs.iter().any(|o| matches!(o, Output::Broadcast(BftMessage::PrePrepare { .. }))));
//! ```

#![forbid(unsafe_code)]

pub mod message;
pub mod replica;

/// Commonly used items.
pub mod prelude {
    pub use crate::message::{
        BftMessage, BftPayload, Digest, Prepared, ReplicaId, Seq, Slot, View,
    };
    pub use crate::replica::{BftConfig, Output, Replica};
}

pub use prelude::*;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn config_quorums() {
        for (n, f, q) in [
            (4, 1, 3),
            (5, 1, 4),
            (6, 1, 4),
            (7, 2, 5),
            (10, 3, 7),
            (1, 0, 1),
        ] {
            let cfg = BftConfig::new(n);
            assert_eq!(cfg.f(), f);
            assert_eq!(cfg.quorum(), q);
        }
    }

    /// Safety: any two quorums share at least `f + 1` replicas, so at least
    /// one correct one (with `2f + 1` this fails at n = 5 and 6: {0,1,2} and
    /// {3,4,5} are both quorums). Liveness: the `n - f` correct replicas
    /// are a quorum by themselves. Every quorum-sized subset is enumerated.
    #[test]
    fn any_two_quorums_intersect_in_a_correct_replica() {
        for n in 4..=7u32 {
            let cfg = BftConfig::new(n);
            let (q, f) = (cfg.quorum() as u32, cfg.f());
            assert!(
                q <= n - f,
                "n={n}: the correct replicas alone must reach quorum"
            );
            let quorums: Vec<u32> = (0..1u32 << n).filter(|s| s.count_ones() == q).collect();
            for a in &quorums {
                for b in &quorums {
                    assert!((a & b).count_ones() > f, "n={n}: quorums {a:#b} and {b:#b}");
                }
            }
        }
    }

    #[test]
    fn primary_rotates() {
        let cfg = BftConfig::new(4);
        assert_eq!(cfg.primary(0), ReplicaId(0));
        assert_eq!(cfg.primary(1), ReplicaId(1));
        assert_eq!(cfg.primary(4), ReplicaId(0));
    }

    #[test]
    #[should_panic(expected = "replica id out of range")]
    fn out_of_range_replica() {
        let _ = Replica::<u64>::new(ReplicaId(4), BftConfig::new(4));
    }
}
