//! # southbound — signed OpenFlow-like message layer
//!
//! The paper extends OpenFlow with "new message types for signed messages,
//! and ... a unique identifier to each message to prevent duplicate
//! processing" (§5.1). This crate provides exactly that surface:
//!
//! * [`types`] — identifiers, flow rules, network updates, control-plane
//!   events (the subset of the OpenFlow data model the protocol touches);
//! * [`codec`] — a deterministic, length-safe binary wire format
//!   ([`codec::Wire`]) so signatures cover canonical bytes;
//! * [`envelope`] — [`envelope::Signed`] (plain BLS),
//!   [`envelope::ShareSigned`] (threshold partials, for controller
//!   updates), [`envelope::QuorumSigned`] (aggregated signatures) and
//!   [`envelope::Tagged`] (a pair key's HMAC, for switch events, forwards,
//!   acks, reports and readies), all with unique [`envelope::MsgId`]s and
//!   membership [`types::Phase`] binding.
//!
//! ```
//! use southbound::prelude::*;
//! use blscrypto::bls::SecretKey;
//! use substrate::rng::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(9);
//! let key = SecretKey::generate(&mut rng);
//! let event = Event {
//!     id: EventId(1),
//!     kind: EventKind::PacketIn {
//!         switch: SwitchId(3),
//!         flow: FlowId(10),
//!         src: HostId(1),
//!         dst: HostId(2),
//!     },
//!     origin: DomainId(0),
//!     forwarded: false,
//! };
//! let signed = Signed::sign("EVENT", event, Phase(0), MsgId { origin: 3, seq: 1 }, &key);
//! assert!(signed.verify("EVENT", &key.public_key()));
//! ```

#![forbid(unsafe_code)]


pub mod codec;
pub mod envelope;
pub mod types;

/// Commonly used items.
pub mod prelude {
    pub use crate::codec::{DecodeError, Wire};
    pub use crate::envelope::{signing_digest, MsgId, QuorumSigned, ShareSigned, Signed};
    pub use crate::types::*;
}

pub use prelude::*;
