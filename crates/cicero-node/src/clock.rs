//! The wall-clock boundary: the only module in the threaded runtime that
//! reads real time.
//!
//! Everything else in `cicero-node` (and all protocol code) works in
//! [`SimTime`]; this module anchors that timeline to a process-local epoch
//! so a threaded [`crate::exec::ThreadedDeployment`] hands actors the same
//! time type the simulator does. Clippy's `disallowed_types` (the root
//! `clippy.toml`) allows `Instant` here and nowhere else outside
//! `substrate`/`bench` — wall-clock reads anywhere else in the workspace
//! remain a lint failure.

// The whole module is the boundary: the derives on `WallClock` name
// `Instant` in items of their own.
#![expect(clippy::disallowed_types, reason = "the threaded runtime's one wall-clock boundary")]

use simnet::time::SimTime;
use std::time::Instant;

/// A monotonic clock mapping wall time onto [`SimTime`] since an epoch
/// captured at deployment start. Cloned freely; all clones share the epoch.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Captures the epoch: `now()` reads 0 immediately after this call.
    pub fn start() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch, as the protocol's time type.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_from_zero() {
        let c = WallClock::start();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // A fresh epoch reads well under a second.
        assert!(a.as_secs_f64() < 1.0);
    }
}
