//! Merkle tree hashes and audit paths (RFC 6962 §2.1).
//!
//! One threshold signature over a set's root certifies every member of the
//! set: a member travels with its index and the audit path from its leaf to
//! the root, and whoever holds the signed root checks the path. Leaves and
//! inner nodes are hashed under different one-byte prefixes (`0x00` and
//! `0x01`), so no inner node can be passed off as a leaf, nor a leaf as an
//! inner node. A path is accepted only if it has exactly the length the
//! tree's size implies: one cut short or padded out is refused.
//!
//! The tree has one shape and two hash functions ([`TreeHash`]): SHA-256,
//! as the RFC has it, and a cheap 64-bit mix for runs whose signatures are
//! modeled too. Every function here takes the one its caller's run uses.

use blscrypto::sha256::Sha256;
use substrate::rng::splitmix64;

/// A 32-byte tree hash.
pub type Hash = [u8; 32];

/// The function that hashes a tree's leaves and inner nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeHash {
    /// SHA-256, as RFC 6962 has it.
    Sha256,
    /// The prefixed bytes folded through `splitmix64` eight at a time, in
    /// two lanes, then their length, widened to 32 bytes: deterministic and
    /// cheap, and as binding as the modeled adversary needs — it forges no
    /// collisions, as it forges no signatures.
    Mix,
}

impl TreeHash {
    /// The hash of `prefix ‖ bytes`.
    fn digest(self, prefix: u8, bytes: &[u8]) -> Hash {
        match self {
            TreeHash::Sha256 => {
                let mut h = Sha256::new();
                h.update(&[prefix]);
                h.update(bytes);
                h.finalize()
            }
            TreeHash::Mix => {
                // Two lanes, even and odd words, so the chains overlap.
                let fold = |acc: u64, word: u64| splitmix64(&mut (acc ^ word));
                let mut lanes = [u64::from(prefix), !u64::from(prefix)];
                for (i, c) in bytes.chunks(8).enumerate() {
                    let mut word = [0; 8];
                    word[..c.len()].copy_from_slice(c);
                    lanes[i % 2] = fold(lanes[i % 2], u64::from_le_bytes(word));
                }
                let mut acc = fold(fold(lanes[0], lanes[1]), bytes.len() as u64);
                let mut out = [0; 32];
                for lane in out.chunks_mut(8) {
                    lane.copy_from_slice(&splitmix64(&mut acc).to_le_bytes());
                }
                out
            }
        }
    }
}

/// The hash of leaf `data`: `H(0x00 ‖ data)`.
pub fn leaf_hash(hash: TreeHash, data: &[u8]) -> Hash {
    hash.digest(0x00, data)
}

/// The hash of an inner node: `H(0x01 ‖ left ‖ right)`.
pub fn node_hash(hash: TreeHash, left: &Hash, right: &Hash) -> Hash {
    let mut children = [0; 64];
    children[..32].copy_from_slice(left);
    children[32..].copy_from_slice(right);
    hash.digest(0x01, &children)
}

/// The largest power of two below `n` (`n ≥ 2`): where RFC 6962 splits a
/// tree of `n` leaves.
fn split(n: usize) -> usize {
    1 << (usize::BITS - 1 - (n - 1).leading_zeros())
}

/// The tree hash `MTH` of the leaves whose hashes are `leaves` (at least
/// one).
pub fn root(hash: TreeHash, leaves: &[Hash]) -> Hash {
    match leaves {
        [] => unreachable!("a set has at least one member"),
        [leaf] => *leaf,
        _ => {
            let k = split(leaves.len());
            node_hash(hash, &root(hash, &leaves[..k]), &root(hash, &leaves[k..]))
        }
    }
}

/// The audit path `PATH(m, D[n])` of leaf `m` among `leaves`: the sibling
/// hashes from the leaf up, the leaf's own sibling first.
pub fn path(hash: TreeHash, m: usize, leaves: &[Hash]) -> Vec<Hash> {
    if leaves.len() <= 1 {
        return Vec::new();
    }
    let k = split(leaves.len());
    let (mut p, sibling) = if m < k {
        (path(hash, m, &leaves[..k]), root(hash, &leaves[k..]))
    } else {
        (path(hash, m - k, &leaves[k..]), root(hash, &leaves[..k]))
    };
    p.push(sibling);
    p
}

/// `true` iff `path` leads leaf `data`, at `index` of a tree of `size`
/// leaves, to `root` (the verification of RFC 9162 §2.1.3.2): an index out
/// of range, a path one hash too short or too long, or any other data,
/// index or root fails. It takes the leaf's data, not its hash, so nothing
/// but a leaf can be checked as one.
pub fn verify(hash: TreeHash, data: &[u8], index: u32, size: u32, path: &[Hash], root: &Hash) -> bool {
    if index >= size {
        return false;
    }
    let (mut f, mut s) = (index, size - 1);
    let mut r = leaf_hash(hash, data);
    for p in path {
        if s == 0 {
            return false;
        }
        if f & 1 == 1 || f == s {
            r = node_hash(hash, p, &r);
            while f & 1 == 0 && f != 0 {
                f >>= 1;
                s >>= 1;
            }
        } else {
            r = node_hash(hash, &r, p);
        }
        f >>= 1;
        s >>= 1;
    }
    s == 0 && r == *root
}

#[cfg(test)]
mod tests {
    use super::*;
    use blscrypto::sha256::sha256;

    /// Every case runs under both hashes: the tree is the same either way.
    const HASHES: [TreeHash; 2] = [TreeHash::Sha256, TreeHash::Mix];

    fn data(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 3]).collect()
    }

    fn leaves(h: TreeHash, n: usize) -> Vec<Hash> {
        data(n).iter().map(|d| leaf_hash(h, d)).collect()
    }

    /// RFC 6962's definition, node by node, for the sizes a hand-drawn tree
    /// covers: three leaves split 2 / 1, five split 4 / 1.
    #[test]
    fn roots_follow_the_rfc_split() {
        for h in HASHES {
            let l = leaves(h, 5);
            assert_eq!(root(h, &l[..1]), l[0]);
            let n01 = node_hash(h, &l[0], &l[1]);
            let n23 = node_hash(h, &l[2], &l[3]);
            assert_eq!(root(h, &l[..3]), node_hash(h, &n01, &l[2]));
            assert_eq!(root(h, &l[..5]), node_hash(h, &node_hash(h, &n01, &n23), &l[4]));
            assert_eq!(path(h, 4, &l), vec![node_hash(h, &n01, &n23)]);
            assert_eq!(path(h, 2, &l[..3]), vec![n01]);
            assert_eq!(path(h, 1, &l[..3]), vec![l[0], l[2]]);
        }
    }

    /// The prefixes: a leaf is not the plain hash of its data, and an inner
    /// node is not the leaf hash of its children's concatenation. The mix
    /// also tells data apart from itself padded with zeros.
    #[test]
    fn leaves_and_inner_nodes_are_hashed_apart() {
        for h in HASHES {
            assert_ne!(leaf_hash(h, b"x"), sha256(b"x"));
            let (a, b) = (leaf_hash(h, b"a"), leaf_hash(h, b"b"));
            assert_ne!(node_hash(h, &a, &b), leaf_hash(h, &[a, b].concat()));
            assert_ne!(leaf_hash(h, b"ab"), leaf_hash(h, b"ab\0"));
            assert_ne!(leaf_hash(h, b""), leaf_hash(h, &[0; 8]));
        }
        assert_ne!(leaf_hash(TreeHash::Sha256, b"x"), leaf_hash(TreeHash::Mix, b"x"));
    }

    /// For 1–9 leaves: every leaf's path verifies, and a wrong index, a
    /// flipped leaf byte, a truncated or extended path, and another tree's
    /// root are each refused.
    #[test]
    fn every_path_verifies_and_every_tampering_is_refused() {
        for h in HASHES {
            let other = root(h, &leaves(h, 10)[1..]);
            for n in 1..=9usize {
                let (d, l) = (data(n), leaves(h, n));
                let r = root(h, &l);
                let size = n as u32;
                for (m, datum) in d.iter().enumerate() {
                    let p = path(h, m, &l);
                    let index = m as u32;
                    assert!(verify(h, datum, index, size, &p, &r), "{h:?}: {m} of {n}");
                    for wrong in [index + 1, index ^ 1, size, u32::MAX] {
                        if wrong != index {
                            assert!(!verify(h, datum, wrong, size, &p, &r), "{h:?}: {m} of {n} at {wrong}");
                        }
                    }
                    let mut flipped = datum.clone();
                    flipped[2] ^= 1;
                    assert!(!verify(h, &flipped, index, size, &p, &r), "{h:?}: {m} of {n} flipped");
                    if let Some((_, short)) = p.split_last() {
                        assert!(!verify(h, datum, index, size, short, &r), "{h:?}: {m} of {n} truncated");
                    }
                    let long = [p.clone(), vec![l[0]]].concat();
                    assert!(!verify(h, datum, index, size, &long, &r), "{h:?}: {m} of {n} extended");
                    assert!(!verify(h, datum, index, size, &p, &other), "{h:?}: {m} of {n} other root");
                    let other_hash = HASHES.into_iter().find(|&o| o != h).expect("two hashes");
                    assert!(!verify(other_hash, datum, index, size, &p, &r), "{h:?}: {m} of {n} other hash");
                }
            }
        }
    }

    /// An inner node presented as a leaf — its children as the leaf's
    /// data, with the path of the node's place — does not verify: the leaf
    /// prefix differs from the node prefix.
    #[test]
    fn an_inner_node_presented_as_a_leaf_is_refused() {
        for h in HASHES {
            let l = leaves(h, 4);
            let r = root(h, &l);
            let (left, right) = (node_hash(h, &l[0], &l[1]), node_hash(h, &l[2], &l[3]));
            assert_eq!(node_hash(h, &left, &right), r);
            let disguised = [l[0], l[1]].concat();
            assert!(!verify(h, &disguised, 0, 2, &[right], &r));
            assert!(!verify(h, &disguised, 0, 4, &path(h, 0, &l), &r));
        }
    }

    /// Random leaf data and sizes: each path verifies, and with the
    /// neighbouring leaf's data it does not.
    #[test]
    fn seeded_sets_verify_every_member_and_only_it() {
        substrate::forall!(|g| {
            let n = 1 + g.usize_in(0..9);
            let d: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(40)).collect();
            for h in HASHES {
                let l: Vec<Hash> = d.iter().map(|d| leaf_hash(h, d)).collect();
                let r = root(h, &l);
                for m in 0..n {
                    let p = path(h, m, &l);
                    assert!(verify(h, &d[m], m as u32, n as u32, &p, &r));
                    let next = &d[(m + 1) % n];
                    if *next != d[m] {
                        assert!(!verify(h, next, m as u32, n as u32, &p, &r));
                    }
                }
            }
        });
    }
}
