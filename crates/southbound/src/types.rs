//! Identifiers and data-plane primitives shared across the control and data
//! planes.


/// A compute host attached to a top-of-rack switch.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct HostId(pub u32);

/// A data-plane switch.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct SwitchId(pub u32);

/// A controller within a domain's control plane.
///
/// Identifiers are 1-based, never reused, and double as threshold-crypto
/// share indices (paper §4.2: the aggregator is the lowest live identifier).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct ControllerId(pub u32);

/// An update domain: an independent control plane + data plane partition
/// (paper §3.3).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct DomainId(pub u16);

/// A workload-level network flow.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct FlowId(pub u64);

/// A data-plane event, unique network-wide.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct EventId(pub u64);

/// A network update, unique within its event.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct UpdateId {
    /// The event this update answers.
    pub event: EventId,
    /// Per-event sequence number.
    pub seq: u32,
}

/// The control-plane membership phase (paper §4.3): incremented on every
/// controller addition/removal; events are tagged and queued across changes.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default,
)]
pub struct Phase(pub u64);

impl Phase {
    /// The next phase.
    pub fn next(self) -> Phase {
        Phase(self.0 + 1)
    }
}

/// Where a matching packet is sent next.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NextHop {
    /// Forward to a neighbouring switch.
    Switch(SwitchId),
    /// Deliver to a locally attached host.
    Host(HostId),
}

/// An exact-match flow descriptor (the subset of the OpenFlow match space
/// the protocol exercises).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
)]
pub struct FlowMatch {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
}

/// What to do with a matching packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlowAction {
    /// Forward toward the next hop.
    Forward(NextHop),
    /// Drop the packet (firewall rules).
    Deny,
}

/// One forwarding rule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowRule {
    /// The match.
    pub matcher: FlowMatch,
    /// The action.
    pub action: FlowAction,
}

/// The modification an update applies to a switch flow table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UpdateKind {
    /// Install (or replace) a rule.
    Install(FlowRule),
    /// Remove the rule matching this descriptor.
    Remove(FlowMatch),
}

/// A network update: one rule change on one switch (paper §3.1:
/// `u = (s, r)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NetworkUpdate {
    /// Unique id (event + sequence), preventing duplicate processing.
    pub id: UpdateId,
    /// The switch to modify.
    pub switch: SwitchId,
    /// The modification.
    pub kind: UpdateKind,
}

/// Data-plane and administrative events that trigger network updates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// A packet with no matching flow-table rule arrived at a switch.
    PacketIn {
        /// The reporting switch.
        switch: SwitchId,
        /// The flow that needs a route.
        flow: FlowId,
        /// Source host.
        src: HostId,
        /// Destination host.
        dst: HostId,
    },
    /// A completed flow's rules should be removed (setup/teardown mode,
    /// paper §6.2 "unamortized flow creation").
    FlowTeardown {
        /// The finished flow.
        flow: FlowId,
        /// Source host.
        src: HostId,
        /// Destination host.
        dst: HostId,
    },
    /// A link failed; affected routes must be repaired (paper Fig. 2).
    LinkFailure {
        /// One endpoint.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
    /// An administrator changed policy (paper Fig. 1; opaque policy id).
    PolicyChange {
        /// Which policy (interpreted by the controller application).
        policy: u64,
    },
    /// Cross-domain notification that a remote domain's membership changed
    /// (paper §4.3, final step of add/remove).
    MembershipChanged {
        /// The domain whose control plane changed.
        domain: DomainId,
        /// The affected controller.
        controller: ControllerId,
        /// `true` for addition, `false` for removal.
        added: bool,
    },
}

/// A control-plane event: unique id, payload, originating domain, and the
/// forwarded flag that stops endless cross-domain dissemination (paper §4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Event {
    /// Unique event id.
    pub id: EventId,
    /// What happened.
    pub kind: EventKind,
    /// Originating domain.
    pub origin: DomainId,
    /// Set when the event was forwarded from another domain; forwarded
    /// events are processed locally and never re-forwarded.
    pub forwarded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_advances() {
        assert_eq!(Phase::default().next(), Phase(1));
        assert_eq!(Phase(41).next(), Phase(42));
    }

    #[test]
    fn update_id_identity() {
        let a = UpdateId {
            event: EventId(7),
            seq: 0,
        };
        let b = UpdateId {
            event: EventId(7),
            seq: 1,
        };
        assert_ne!(a, b);
        assert_eq!(
            a,
            UpdateId {
                event: EventId(7),
                seq: 0
            }
        );
    }
}
