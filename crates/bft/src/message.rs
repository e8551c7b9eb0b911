//! PBFT protocol messages.

/// A replica index within the consensus group (`0..n`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReplicaId(pub u32);

/// A view number; the primary of view `v` is replica `v mod n`.
pub type View = u64;

/// A sequence number in the total order.
pub type Seq = u64;

/// A payload digest (collision-resistant, supplied by the payload type).
pub type Digest = [u8; 32];

/// Payloads must provide a collision-resistant digest so Byzantine
/// equivocation (same sequence number, different payloads) is detectable.
/// Equal payloads (`==`) must have equal digests: a replica hashes a payload
/// once and reuses that digest for every equal payload it is sent.
pub trait BftPayload: Clone + std::fmt::Debug + PartialEq {
    /// Collision-resistant digest of the payload.
    fn digest(&self) -> Digest;
}

impl BftPayload for u64 {
    fn digest(&self) -> Digest {
        let mut d = [0u8; 32];
        d[..8].copy_from_slice(&self.to_be_bytes());
        d
    }
}

impl BftPayload for String {
    fn digest(&self) -> Digest {
        // Tests only; the production payload type hashes its wire encoding.
        let mut d = [0u8; 32];
        let bytes = self.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            d[i % 32] ^= b.rotate_left((i / 32) as u32);
        }
        d[31] ^= bytes.len() as u8;
        d
    }
}

/// A consensus slot content: either an application payload or a `Noop`
/// filler the new primary uses to close sequence gaps after a view change
/// (PBFT's null requests). `Noop`s are agreed on like any payload but never
/// delivered to the application.
#[derive(Clone, Debug, PartialEq)]
pub enum Slot<P> {
    /// An application payload.
    Payload(P),
    /// A gap filler.
    Noop,
}

impl<P: BftPayload> Slot<P> {
    /// The slot digest (a fixed marker for `Noop`; votes are keyed by
    /// `(view, seq, digest)` so a constant is unambiguous).
    pub fn digest(&self) -> Digest {
        match self {
            Slot::Payload(p) => p.digest(),
            Slot::Noop => *b"CICERO_BFT_NOOP_SLOT____________",
        }
    }
}

/// A prepared certificate carried in view changes: the entry this replica
/// can prove was prepared in an earlier view.
#[derive(Clone, Debug, PartialEq)]
pub struct Prepared<P> {
    /// View in which it prepared.
    pub view: View,
    /// Its sequence number.
    pub seq: Seq,
    /// Slot digest.
    pub digest: Digest,
    /// The slot content (so the new primary can re-propose).
    pub slot: Slot<P>,
}

/// The PBFT message alphabet.
#[derive(Clone, Debug, PartialEq)]
pub enum BftMessage<P> {
    /// A request forwarded to the primary (replicas are their own clients in
    /// the Cicero control plane).
    Forward {
        /// The payload to order.
        payload: P,
    },
    /// Primary's proposal binding `seq` to a slot in `view`.
    PrePrepare {
        /// Current view.
        view: View,
        /// Proposed sequence number.
        seq: Seq,
        /// The slot content.
        slot: Slot<P>,
    },
    /// A backup's agreement to the binding.
    Prepare {
        /// Current view.
        view: View,
        /// Sequence number.
        seq: Seq,
        /// Digest of the pre-prepared payload.
        digest: Digest,
    },
    /// Commit vote: the sender has a prepared certificate.
    Commit {
        /// Current view.
        view: View,
        /// Sequence number.
        seq: Seq,
        /// Digest.
        digest: Digest,
    },
    /// Vote to move to `new_view`, carrying prepared certificates.
    ViewChange {
        /// The proposed view.
        new_view: View,
        /// Entries the sender prepared in earlier views.
        prepared: Vec<Prepared<P>>,
        /// The sender's delivery frontier. The new primary re-proposes from
        /// the quorum's *minimum* frontier so replicas whose logs fell
        /// behind (lossy links) catch up on slots the rest already
        /// delivered — PBFT's checkpoint-based state transfer, reduced to
        /// the no-garbage-collection case.
        last_delivered: Seq,
    },
    /// The new primary's installation message: certificates justify
    /// re-proposals, which follow as fresh `PrePrepare`s.
    NewView {
        /// The installed view.
        view: View,
        /// The view-change senders that justify installation.
        voters: Vec<ReplicaId>,
        /// Re-proposed slots (adopted certificates plus `Noop` gap fillers).
        reproposals: Vec<(Seq, Slot<P>)>,
    },
}
