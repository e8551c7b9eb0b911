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

    /// Convenience: encodes into a fresh buffer, sized for a typical
    /// message so that encoding one takes a single allocation.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
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

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.is_some().encode(buf);
        if let Some(v) = self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(if bool::decode(buf)? {
            Some(T::decode(buf)?)
        } else {
            None
        })
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

/// Declares a struct's wire layout: the named fields, encoded in the order
/// listed. That order *is* the wire order (signatures cover these bytes), so
/// a field is appended or the record gets a new name; the field types are
/// whatever the struct declares, found through [`Wire::decode`]. An envelope
/// generic over its payload is declared as `Name<T> { .. }`.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident $(<$g:ident>)? { $($field:ident),* $(,)? }) => {
        impl $(<$g: $crate::codec::Wire>)? $crate::codec::Wire for $ty $(<$g>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::codec::Wire::encode(&self.$field, buf);)*
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                Ok($ty { $($field: $crate::codec::Wire::decode(buf)?),* })
            }
        }
    };
}

/// Declares an enum's wire layout: one tag byte, then the variant's fields in
/// the order listed (`Tuple(a, b)`, `Struct { a, b }` or `Unit`). A tag is
/// never reused for a different variant; decoding any other byte is a
/// [`DecodeError::BadTag`].
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident $(($($t:ident),*))? $({ $($f:ident),* })?
    ),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {$(
                    $ty::$variant $(($($t),*))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($($crate::codec::Wire::encode($t, buf);)*)?
                        $($($crate::codec::Wire::encode($f, buf);)*)?
                    }
                )*}
            }
            #[deny(unreachable_patterns)] // a tag listed twice
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                match <u8 as $crate::codec::Wire>::decode(buf)? {
                    $($tag => {
                        $($(let $t = $crate::codec::Wire::decode(buf)?;)*)?
                        $($(let $f = $crate::codec::Wire::decode(buf)?;)*)?
                        Ok($ty::$variant $(($($t),*))? $({ $($f),* })?)
                    })*
                    t => Err($crate::codec::DecodeError::BadTag(t)),
                }
            }
        }
    };
}

wire_struct!(UpdateId { event, seq });
wire_enum!(NextHop { 0 => Switch(s), 1 => Host(h) });
wire_struct!(FlowMatch { src, dst });
wire_enum!(FlowAction { 0 => Forward(next), 1 => Deny });
wire_struct!(FlowRule { matcher, action });
wire_enum!(UpdateKind { 0 => Install(rule), 1 => Remove(matcher) });
wire_struct!(NetworkUpdate { id, switch, kind });
wire_enum!(EventKind {
    0 => PacketIn { switch, flow, src, dst },
    1 => FlowTeardown { flow, src, dst },
    2 => LinkFailure { a, b },
    3 => PolicyChange { policy },
    4 => MembershipChanged { domain, controller, added },
});
wire_struct!(Event { id, kind, origin, forwarded });

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips `v` and checks that `from_wire` refuses its encoding with
    /// one byte cut off and with one byte added.
    fn exact<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).as_ref(), Ok(&v));
        assert!(
            T::from_wire(&bytes[..bytes.len() - 1]).is_err(),
            "cut: {v:?}"
        );
        bytes.push(0);
        assert!(T::from_wire(&bytes).is_err(), "extended: {v:?}");
    }

    #[test]
    fn primitive_round_trips() {
        exact(0xdeadbeefu32);
        exact(true);
        exact(false);
        exact([1u8, 2, 3]);
        exact(vec![FlowId(1), FlowId(2)]);
        exact(vec![(FlowId(1), SwitchId(2)), (FlowId(3), SwitchId(4))]);
        exact(Some(FlowId(5)));
        exact(None::<FlowId>);
        assert_eq!(Some(7u16).to_wire(), [1, 0, 7]);
        assert_eq!(None::<u16>.to_wire(), [0]);
        assert_eq!(
            Option::<u16>::from_wire(&[2, 0, 7]),
            Err(DecodeError::BadTag(2))
        );
    }

    /// Every variant of every record declared above, each at top level.
    #[test]
    fn every_declared_record_round_trips_exactly() {
        let id = UpdateId {
            event: EventId(99),
            seq: 3,
        };
        let matcher = FlowMatch {
            src: HostId(1),
            dst: HostId(2),
        };
        exact(id);
        exact(matcher);
        for hop in [NextHop::Switch(SwitchId(8)), NextHop::Host(HostId(2))] {
            exact(hop);
            for action in [FlowAction::Forward(hop), FlowAction::Deny] {
                let rule = FlowRule { matcher, action };
                exact(action);
                exact(rule);
                for kind in [UpdateKind::Install(rule), UpdateKind::Remove(matcher)] {
                    exact(kind);
                    exact(NetworkUpdate {
                        id,
                        switch: SwitchId(7),
                        kind,
                    });
                }
            }
        }
        let (src, dst, flow) = (HostId(1), HostId(2), FlowId(6));
        for kind in [
            EventKind::PacketIn {
                switch: SwitchId(7),
                flow,
                src,
                dst,
            },
            EventKind::FlowTeardown { flow, src, dst },
            EventKind::LinkFailure {
                a: SwitchId(3),
                b: SwitchId(4),
            },
            EventKind::PolicyChange { policy: 9 },
            EventKind::MembershipChanged {
                domain: DomainId(2),
                controller: ControllerId(9),
                added: true,
            },
        ] {
            exact(kind);
            exact(Event {
                id: EventId(5),
                kind,
                origin: DomainId(1),
                forwarded: true,
            });
        }
        assert_eq!(
            NextHop::from_wire(&[2, 0, 0, 0, 1]),
            Err(DecodeError::BadTag(2))
        );
        assert_eq!(EventKind::from_wire(&[5]), Err(DecodeError::BadTag(5)));
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
