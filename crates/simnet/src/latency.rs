//! Pluggable link-latency models.

use crate::node::NodeId;
use crate::time::SimDuration;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform() {
        let m = UniformLatency(SimDuration::from_micros(50));
        assert_eq!(m.latency(NodeId(1), NodeId(2)).as_micros(), 50);
        assert_eq!(m.latency(NodeId(1), NodeId(1)), SimDuration::ZERO);
    }
}
