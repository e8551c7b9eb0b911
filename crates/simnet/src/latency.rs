//! Pluggable link-latency models.

use crate::node::NodeId;
use crate::time::SimDuration;
use std::collections::BTreeMap;

/// Determines the one-way latency of a message between two nodes.
pub trait LatencyModel: Send {
    /// One-way latency from `from` to `to`. `from == to` should be (near)
    /// zero.
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration;
}

/// A single uniform latency for every distinct pair.
#[derive(Clone, Copy, Debug)]
pub struct UniformLatency(pub SimDuration);

impl LatencyModel for UniformLatency {
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            self.0
        }
    }
}

/// Latency from an explicit pair table with a default fallback.
#[derive(Clone, Debug, Default)]
pub struct TableLatency {
    default: SimDuration,
    pairs: BTreeMap<(NodeId, NodeId), SimDuration>,
}

impl TableLatency {
    /// Creates a table with the given fallback latency.
    pub fn new(default: SimDuration) -> Self {
        TableLatency {
            default,
            pairs: BTreeMap::new(),
        }
    }

    /// Sets the latency for both directions of a pair.
    pub fn set_symmetric(&mut self, a: NodeId, b: NodeId, latency: SimDuration) -> &mut Self {
        self.pairs.insert((a, b), latency);
        self.pairs.insert((b, a), latency);
        self
    }

    /// Sets the latency for one direction.
    pub fn set(&mut self, from: NodeId, to: NodeId, latency: SimDuration) -> &mut Self {
        self.pairs.insert((from, to), latency);
        self
    }
}

impl LatencyModel for TableLatency {
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        self.pairs.get(&(from, to)).copied().unwrap_or(self.default)
    }
}

/// A latency model computed by a closure (used by the topology layer, which
/// knows rack/pod/site locality).
pub struct FnLatency<F>(pub F);

impl<F> LatencyModel for FnLatency<F>
where
    F: Fn(NodeId, NodeId) -> SimDuration + Send,
{
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        (self.0)(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform() {
        let m = UniformLatency(SimDuration::from_micros(50));
        assert_eq!(m.latency(NodeId(1), NodeId(2)).as_micros(), 50);
        assert_eq!(m.latency(NodeId(1), NodeId(1)), SimDuration::ZERO);
    }

    #[test]
    fn table_with_fallback() {
        let mut m = TableLatency::new(SimDuration::from_micros(100));
        m.set_symmetric(NodeId(1), NodeId(2), SimDuration::from_micros(10));
        m.set(NodeId(1), NodeId(3), SimDuration::from_micros(7));
        assert_eq!(m.latency(NodeId(1), NodeId(2)).as_micros(), 10);
        assert_eq!(m.latency(NodeId(2), NodeId(1)).as_micros(), 10);
        assert_eq!(m.latency(NodeId(1), NodeId(3)).as_micros(), 7);
        assert_eq!(m.latency(NodeId(3), NodeId(1)).as_micros(), 100);
        assert_eq!(m.latency(NodeId(5), NodeId(6)).as_micros(), 100);
    }

    #[test]
    fn closure_model() {
        let m = FnLatency(|a: NodeId, b: NodeId| {
            SimDuration::from_micros(u64::from(a.0.abs_diff(b.0)))
        });
        assert_eq!(m.latency(NodeId(3), NodeId(10)).as_micros(), 7);
    }
}
