//! Binary wire codec.
//!
//! The paper extends the OpenFlow message layer with signed message types and
//! unique identifiers; signatures must therefore be computed over a
//! *canonical byte encoding* of each message. This module provides that
//! encoding: deterministic, length-prefixed, and hardened against malformed
//! input (decoding arbitrary bytes never panics — property-tested).

use crate::types::*;

/// Decoding failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An enum discriminant byte was invalid.
    BadTag(u8),
    /// A length prefix exceeded sane bounds.
    BadLength(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadTag(t) => write!(f, "invalid discriminant byte {t:#x}"),
            DecodeError::BadLength(l) => write!(f, "implausible length {l}"),
        }
    }
}
impl std::error::Error for DecodeError {}

/// Canonical binary encoding.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value, advancing `buf` past it.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input; the read position is then
    /// unspecified.
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Convenience: encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decodes requiring the input to be fully consumed.
    ///
    /// # Errors
    ///
    /// As [`Wire::decode`]; trailing bytes are a [`DecodeError::BadLength`].
    fn from_wire(mut bytes: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Ok(v)
        } else {
            Err(DecodeError::BadLength(bytes.len() as u64))
        }
    }
}

/// Splits the next `N` bytes off the front of `buf`: the one bounds check
/// under every fixed-width decoder, so a short input is an error by
/// construction and never an out-of-range slice.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or(DecodeError::UnexpectedEnd)?;
    *buf = rest;
    Ok(*head)
}

/// Big-endian (network order) integers, matching the OpenFlow convention.
macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_be_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                take(buf).map(<$ty>::from_be_bytes)
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        u8::from(*self).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        take(buf)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u32::decode(buf)?;
        // Each element takes at least one byte; reject absurd prefixes early.
        if len as usize > buf.len() {
            return Err(DecodeError::BadLength(len as u64));
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

macro_rules! wire_newtype {
    ($($ty:ident($inner:ty);)*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok($ty(<$inner>::decode(buf)?))
            }
        }
    )*};
}

wire_newtype! {
    HostId(u32);
    SwitchId(u32);
    ControllerId(u32);
    DomainId(u16);
    FlowId(u64);
    EventId(u64);
    Phase(u64);
}

impl Wire for UpdateId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.event.encode(buf);
        self.seq.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(UpdateId {
            event: EventId::decode(buf)?,
            seq: u32::decode(buf)?,
        })
    }
}

impl Wire for NextHop {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            NextHop::Switch(s) => {
                0u8.encode(buf);
                s.encode(buf);
            }
            NextHop::Host(h) => {
                1u8.encode(buf);
                h.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(NextHop::Switch(SwitchId::decode(buf)?)),
            1 => Ok(NextHop::Host(HostId::decode(buf)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Wire for FlowMatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.src.encode(buf);
        self.dst.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(FlowMatch {
            src: HostId::decode(buf)?,
            dst: HostId::decode(buf)?,
        })
    }
}

impl Wire for FlowAction {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FlowAction::Forward(n) => {
                0u8.encode(buf);
                n.encode(buf);
            }
            FlowAction::Deny => 1u8.encode(buf),
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(FlowAction::Forward(NextHop::decode(buf)?)),
            1 => Ok(FlowAction::Deny),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Wire for FlowRule {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.matcher.encode(buf);
        self.action.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(FlowRule {
            matcher: FlowMatch::decode(buf)?,
            action: FlowAction::decode(buf)?,
        })
    }
}

impl Wire for UpdateKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            UpdateKind::Install(r) => {
                0u8.encode(buf);
                r.encode(buf);
            }
            UpdateKind::Remove(m) => {
                1u8.encode(buf);
                m.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(UpdateKind::Install(FlowRule::decode(buf)?)),
            1 => Ok(UpdateKind::Remove(FlowMatch::decode(buf)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Wire for NetworkUpdate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.switch.encode(buf);
        self.kind.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(NetworkUpdate {
            id: UpdateId::decode(buf)?,
            switch: SwitchId::decode(buf)?,
            kind: UpdateKind::decode(buf)?,
        })
    }
}

impl Wire for EventKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            EventKind::PacketIn {
                switch,
                flow,
                src,
                dst,
            } => {
                0u8.encode(buf);
                switch.encode(buf);
                flow.encode(buf);
                src.encode(buf);
                dst.encode(buf);
            }
            EventKind::FlowTeardown { flow, src, dst } => {
                1u8.encode(buf);
                flow.encode(buf);
                src.encode(buf);
                dst.encode(buf);
            }
            EventKind::LinkFailure { a, b } => {
                2u8.encode(buf);
                a.encode(buf);
                b.encode(buf);
            }
            EventKind::PolicyChange { policy } => {
                3u8.encode(buf);
                policy.encode(buf);
            }
            EventKind::MembershipChanged {
                domain,
                controller,
                added,
            } => {
                4u8.encode(buf);
                domain.encode(buf);
                controller.encode(buf);
                added.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(EventKind::PacketIn {
                switch: SwitchId::decode(buf)?,
                flow: FlowId::decode(buf)?,
                src: HostId::decode(buf)?,
                dst: HostId::decode(buf)?,
            }),
            1 => Ok(EventKind::FlowTeardown {
                flow: FlowId::decode(buf)?,
                src: HostId::decode(buf)?,
                dst: HostId::decode(buf)?,
            }),
            2 => Ok(EventKind::LinkFailure {
                a: SwitchId::decode(buf)?,
                b: SwitchId::decode(buf)?,
            }),
            3 => Ok(EventKind::PolicyChange {
                policy: u64::decode(buf)?,
            }),
            4 => Ok(EventKind::MembershipChanged {
                domain: DomainId::decode(buf)?,
                controller: ControllerId::decode(buf)?,
                added: bool::decode(buf)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Wire for Event {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.kind.encode(buf);
        self.origin.encode(buf);
        self.forwarded.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Event {
            id: EventId::decode(buf)?,
            kind: EventKind::decode(buf)?,
            origin: DomainId::decode(buf)?,
            forwarded: bool::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn primitive_round_trips() {
        round_trip(0xdeadbeefu32);
        round_trip(true);
        round_trip(false);
        round_trip([1u8, 2, 3]);
        round_trip(vec![FlowId(1), FlowId(2)]);
        round_trip(vec![(FlowId(1), SwitchId(2)), (FlowId(3), SwitchId(4))]);
    }

    #[test]
    fn domain_type_round_trips() {
        round_trip(NetworkUpdate {
            id: UpdateId {
                event: EventId(99),
                seq: 3,
            },
            switch: SwitchId(7),
            kind: UpdateKind::Install(FlowRule {
                matcher: FlowMatch {
                    src: HostId(1),
                    dst: HostId(2),
                },
                action: FlowAction::Forward(NextHop::Switch(SwitchId(8))),
            }),
        });
        round_trip(NetworkUpdate {
            id: UpdateId {
                event: EventId(100),
                seq: 0,
            },
            switch: SwitchId(7),
            kind: UpdateKind::Remove(FlowMatch {
                src: HostId(1),
                dst: HostId(2),
            }),
        });
        round_trip(Event {
            id: EventId(5),
            kind: EventKind::MembershipChanged {
                domain: DomainId(2),
                controller: ControllerId(9),
                added: true,
            },
            origin: DomainId(1),
            forwarded: true,
        });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = FlowId(7).to_wire();
        bytes.push(0);
        assert_eq!(
            FlowId::from_wire(&bytes),
            Err(DecodeError::BadLength(1))
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = EventId(7).to_wire();
        assert_eq!(
            EventId::from_wire(&bytes[..4]),
            Err(DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A Vec claiming 2^31 elements with a 6-byte body.
        let mut buf = Vec::new();
        0x8000_0000u32.encode(&mut buf);
        buf.extend_from_slice(&[0, 0]);
        assert!(Vec::<u64>::from_wire(&buf).is_err());
    }

    /// Golden wire fixtures: the exact byte layout is part of the protocol
    /// contract. These pin the big-endian encoding across changes to the
    /// integer and buffer plumbing underneath.
    #[test]
    fn golden_event_fixture() {
        let event = Event {
            id: EventId(0x0102030405060708),
            kind: EventKind::PacketIn {
                switch: SwitchId(0x0a0b0c0d),
                flow: FlowId(0x1112131415161718),
                src: HostId(0x21222324),
                dst: HostId(0x31323334),
            },
            origin: DomainId(0x4142),
            forwarded: true,
        };
        let expected: &[u8] = &[
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // id
            0x00, // PacketIn discriminant
            0x0a, 0x0b, 0x0c, 0x0d, // switch
            0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // flow
            0x21, 0x22, 0x23, 0x24, // src
            0x31, 0x32, 0x33, 0x34, // dst
            0x41, 0x42, // origin
            0x01, // forwarded
        ];
        assert_eq!(&event.to_wire()[..], expected);
        assert_eq!(Event::from_wire(expected).unwrap(), event);
    }

    #[test]
    fn golden_update_fixture() {
        let update = NetworkUpdate {
            id: UpdateId {
                event: EventId(0x99),
                seq: 3,
            },
            switch: SwitchId(7),
            kind: UpdateKind::Install(FlowRule {
                matcher: FlowMatch {
                    src: HostId(1),
                    dst: HostId(2),
                },
                action: FlowAction::Forward(NextHop::Switch(SwitchId(8))),
            }),
        };
        let expected: &[u8] = &[
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x99, // id.event
            0x00, 0x00, 0x00, 0x03, // id.seq
            0x00, 0x00, 0x00, 0x07, // switch
            0x00, // Install discriminant
            0x00, 0x00, 0x00, 0x01, // matcher.src
            0x00, 0x00, 0x00, 0x02, // matcher.dst
            0x00, // Forward discriminant
            0x00, // NextHop::Switch discriminant
            0x00, 0x00, 0x00, 0x08, // next-hop switch
        ];
        assert_eq!(&update.to_wire()[..], expected);
        assert_eq!(NetworkUpdate::from_wire(expected).unwrap(), update);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics() {
        substrate::forall!(|g| {
            let bytes = g.bytes(255);
            let _ = Event::from_wire(&bytes);
            let _ = NetworkUpdate::from_wire(&bytes);
            let _ = Vec::<FlowRule>::from_wire(&bytes);
        });
    }

    #[test]
    fn event_round_trip() {
        substrate::forall!(|g| {
            let event = Event {
                id: EventId(g.u64()),
                kind: EventKind::PacketIn {
                    switch: SwitchId(g.u32()),
                    flow: FlowId(g.u64()),
                    src: HostId(g.u32()),
                    dst: HostId(g.u32()),
                },
                origin: DomainId(g.u16()),
                forwarded: g.bool(),
            };
            let bytes = event.to_wire();
            assert_eq!(Event::from_wire(&bytes).unwrap(), event);
        });
    }
}
