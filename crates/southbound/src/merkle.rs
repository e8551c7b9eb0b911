//! Merkle tree hashes and audit paths (RFC 6962 §2.1).
//!
//! One threshold signature over a set's root certifies every member of the
//! set: a member travels with its index and the audit path from its leaf to
//! the root, and whoever holds the signed root checks the path. Leaves and
//! inner nodes are hashed under different one-byte prefixes (`0x00` and
//! `0x01`), so no inner node can be passed off as a leaf, nor a leaf as an
//! inner node. A path is accepted only if it has exactly the length the
//! tree's size implies: one cut short or padded out is refused.

use blscrypto::sha256::Sha256;

/// A 32-byte SHA-256 tree hash.
pub type Hash = [u8; 32];

/// The hash of leaf `data`: `SHA-256(0x00 ‖ data)`.
pub fn leaf_hash(data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// The hash of an inner node: `SHA-256(0x01 ‖ left ‖ right)`.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The largest power of two below `n` (`n ≥ 2`): where RFC 6962 splits a
/// tree of `n` leaves.
fn split(n: usize) -> usize {
    1 << (usize::BITS - 1 - (n - 1).leading_zeros())
}

/// The tree hash `MTH` of the leaves whose hashes are `leaves` (at least
/// one).
pub fn root(leaves: &[Hash]) -> Hash {
    match leaves {
        [] => unreachable!("a set has at least one member"),
        [leaf] => *leaf,
        _ => {
            let k = split(leaves.len());
            node_hash(&root(&leaves[..k]), &root(&leaves[k..]))
        }
    }
}

/// The audit path `PATH(m, D[n])` of leaf `m` among `leaves`: the sibling
/// hashes from the leaf up, the leaf's own sibling first.
pub fn path(m: usize, leaves: &[Hash]) -> Vec<Hash> {
    if leaves.len() <= 1 {
        return Vec::new();
    }
    let k = split(leaves.len());
    let (mut p, sibling) = if m < k {
        (path(m, &leaves[..k]), root(&leaves[k..]))
    } else {
        (path(m - k, &leaves[k..]), root(&leaves[..k]))
    };
    p.push(sibling);
    p
}

/// `true` iff `path` leads leaf `data`, at `index` of a tree of `size`
/// leaves, to `root` (the verification of RFC 9162 §2.1.3.2): an index out
/// of range, a path one hash too short or too long, or any other data,
/// index or root fails. It takes the leaf's data, not its hash, so nothing
/// but a leaf can be checked as one.
pub fn verify(data: &[u8], index: u32, size: u32, path: &[Hash], root: &Hash) -> bool {
    if index >= size {
        return false;
    }
    let (mut f, mut s) = (index, size - 1);
    let mut r = leaf_hash(data);
    for p in path {
        if s == 0 {
            return false;
        }
        if f & 1 == 1 || f == s {
            r = node_hash(p, &r);
            while f & 1 == 0 && f != 0 {
                f >>= 1;
                s >>= 1;
            }
        } else {
            r = node_hash(&r, p);
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

    fn data(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 3]).collect()
    }

    fn leaves(n: usize) -> Vec<Hash> {
        data(n).iter().map(|d| leaf_hash(d)).collect()
    }

    /// RFC 6962's definition, node by node, for the sizes a hand-drawn tree
    /// covers: three leaves split 2 / 1, five split 4 / 1.
    #[test]
    fn roots_follow_the_rfc_split() {
        let l = leaves(5);
        assert_eq!(root(&l[..1]), l[0]);
        let n01 = node_hash(&l[0], &l[1]);
        let n23 = node_hash(&l[2], &l[3]);
        assert_eq!(root(&l[..3]), node_hash(&n01, &l[2]));
        assert_eq!(root(&l[..5]), node_hash(&node_hash(&n01, &n23), &l[4]));
        assert_eq!(path(4, &l), vec![node_hash(&n01, &n23)]);
        assert_eq!(path(2, &l[..3]), vec![n01]);
        assert_eq!(path(1, &l[..3]), vec![l[0], l[2]]);
    }

    /// The prefixes: a leaf is not the plain hash of its data, and an inner
    /// node is not the leaf hash of its children's concatenation.
    #[test]
    fn leaves_and_inner_nodes_are_hashed_apart() {
        assert_ne!(leaf_hash(b"x"), sha256(b"x"));
        let (a, b) = (leaf_hash(b"a"), leaf_hash(b"b"));
        assert_ne!(node_hash(&a, &b), leaf_hash(&[a, b].concat()));
    }

    /// For 1–9 leaves: every leaf's path verifies, and a wrong index, a
    /// flipped leaf byte, a truncated or extended path, and another tree's
    /// root are each refused.
    #[test]
    fn every_path_verifies_and_every_tampering_is_refused() {
        let other = root(&leaves(10)[1..]);
        for n in 1..=9usize {
            let (d, l) = (data(n), leaves(n));
            let r = root(&l);
            let size = n as u32;
            for (m, datum) in d.iter().enumerate() {
                let p = path(m, &l);
                let index = m as u32;
                assert!(verify(datum, index, size, &p, &r), "{m} of {n}");
                for wrong in [index + 1, index ^ 1, size, u32::MAX] {
                    if wrong != index {
                        assert!(!verify(datum, wrong, size, &p, &r), "{m} of {n} at {wrong}");
                    }
                }
                let mut flipped = datum.clone();
                flipped[2] ^= 1;
                assert!(!verify(&flipped, index, size, &p, &r), "{m} of {n} flipped");
                if let Some((_, short)) = p.split_last() {
                    assert!(!verify(datum, index, size, short, &r), "{m} of {n} truncated");
                }
                let long = [p.clone(), vec![l[0]]].concat();
                assert!(!verify(datum, index, size, &long, &r), "{m} of {n} extended");
                assert!(!verify(datum, index, size, &p, &other), "{m} of {n} other root");
            }
        }
    }

    /// An inner node presented as a leaf — its children as the leaf's
    /// data, with the path of the node's place — does not verify: the leaf
    /// prefix differs from the node prefix.
    #[test]
    fn an_inner_node_presented_as_a_leaf_is_refused() {
        let l = leaves(4);
        let r = root(&l);
        let (left, right) = (node_hash(&l[0], &l[1]), node_hash(&l[2], &l[3]));
        assert_eq!(node_hash(&left, &right), r);
        let disguised = [l[0], l[1]].concat();
        assert!(!verify(&disguised, 0, 2, &[right], &r));
        assert!(!verify(&disguised, 0, 4, &path(0, &l), &r));
    }

    /// Random leaf data and sizes: each path verifies, and with the
    /// neighbouring leaf's data it does not.
    #[test]
    fn seeded_sets_verify_every_member_and_only_it() {
        substrate::forall!(|g| {
            let n = 1 + g.usize_in(0..9);
            let d: Vec<Vec<u8>> = (0..n).map(|_| g.bytes(40)).collect();
            let l: Vec<Hash> = d.iter().map(|d| leaf_hash(d)).collect();
            let r = root(&l);
            for m in 0..n {
                let p = path(m, &l);
                assert!(verify(&d[m], m as u32, n as u32, &p, &r));
                let next = &d[(m + 1) % n];
                if *next != d[m] {
                    assert!(!verify(next, m as u32, n as u32, &p, &r));
                }
            }
        });
    }
}
