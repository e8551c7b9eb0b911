//! Known-answer conformance suite.
//!
//! Pins the crypto stack's observable outputs — generator coordinates,
//! field-tower arithmetic, hash-to-curve, sign/verify round trips, and the
//! pairing itself — against recorded vectors in
//! `tests/fixtures/bls_kat.json`, so any future "optimization" that changes
//! a bit anywhere in the stack fails with the *name* of the offending
//! vector rather than a distant protocol-level test.
//!
//! The generator, tower and pairing vectors were recorded from the
//! reference (pre-optimization) implementations and cross-checked against
//! the fast paths by the differential suite. The `hash_to_g1` and
//! `sign_verify` vectors were regenerated when cofactor clearing moved from
//! `H1` to `h_eff`, which maps each candidate to a different `G1` point;
//! the differential suite holds that output's subgroup membership and the
//! GLV signing product to the reference ladder. `pairing_digest` is the
//! reduced *Tate* value [`reference::pairing`] computes: it pins the
//! oracle itself, which the shipped ate pairing is then held to by
//! decision (see [`crate::differential`]). To regenerate after an
//! *intentional* change:
//!
//! ```text
//! cargo test -p blscrypto --lib -- --ignored regen_fixtures
//! ```

use crate::bls::SecretKey;
use crate::curves::{g1_generator, g2_generator, hash_to_g1};
use crate::reference;
use crate::sha256::sha256;
use crate::tower::{Field, Fp12, Fp2, Fp6};
use crate::Fp;
use substrate::rng::{SeedableRng, StdRng};
use substrate::ser::JsonValue;

const FIXTURES: &str = include_str!("../tests/fixtures/bls_kat.json");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A deterministic, implementation-independent `Fp` element: 64 wide bytes
/// derived from SHA-256 of a printable tag, reduced mod p.
fn fp_from_tag(tag: &str) -> Fp {
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&sha256(format!("{tag}/0").as_bytes()));
    wide[32..].copy_from_slice(&sha256(format!("{tag}/1").as_bytes()));
    Fp::from_bytes_wide(&wide)
}

fn fp2_from_tag(tag: &str) -> Fp2 {
    Fp2::new(fp_from_tag(&format!("{tag}.c0")), fp_from_tag(&format!("{tag}.c1")))
}

fn fp6_from_tag(tag: &str) -> Fp6 {
    Fp6::new(
        fp2_from_tag(&format!("{tag}.c0")),
        fp2_from_tag(&format!("{tag}.c1")),
        fp2_from_tag(&format!("{tag}.c2")),
    )
}

fn fp12_from_tag(tag: &str) -> Fp12 {
    Fp12::new(fp6_from_tag(&format!("{tag}.c0")), fp6_from_tag(&format!("{tag}.c1")))
}

fn fp6_bytes(a: &Fp6) -> Vec<u8> {
    let mut out = Vec::with_capacity(288);
    out.extend_from_slice(&a.c0.to_bytes_be());
    out.extend_from_slice(&a.c1.to_bytes_be());
    out.extend_from_slice(&a.c2.to_bytes_be());
    out
}

fn fp12_digest(a: &Fp12) -> String {
    let mut bytes = fp6_bytes(&a.c0);
    bytes.extend_from_slice(&fp6_bytes(&a.c1));
    hex(&sha256(&bytes))
}

fn fp2_digest(a: &Fp2) -> String {
    hex(&sha256(&a.to_bytes_be()))
}

fn fp6_digest(a: &Fp6) -> String {
    hex(&sha256(&fp6_bytes(a)))
}

/// Every tower vector: `(name, digest-of-result)`. One flat list so the
/// conformance test and the regenerator cannot drift apart.
fn tower_vectors() -> Vec<(&'static str, String)> {
    let a2 = fp2_from_tag("kat.fp2.a");
    let b2 = fp2_from_tag("kat.fp2.b");
    let a6 = fp6_from_tag("kat.fp6.a");
    let b6 = fp6_from_tag("kat.fp6.b");
    let a12 = fp12_from_tag("kat.fp12.a");
    let b12 = fp12_from_tag("kat.fp12.b");
    vec![
        ("fp2_mul", fp2_digest(&(a2 * b2))),
        ("fp2_square", fp2_digest(&a2.square())),
        ("fp2_invert", fp2_digest(&a2.invert().expect("nonzero"))),
        ("fp6_mul", fp6_digest(&(a6 * b6))),
        ("fp6_invert", fp6_digest(&a6.invert().expect("nonzero"))),
        ("fp12_mul", fp12_digest(&(a12 * b12))),
        ("fp12_square", fp12_digest(&a12.square())),
        ("fp12_invert", fp12_digest(&a12.invert().expect("nonzero"))),
        ("fp12_frobenius", fp12_digest(&a12.frobenius_map())),
    ]
}

const HASH_VECTORS: [(&str, &str); 3] = [
    ("install flow rule 42", "CICERO_BLS12381_SIG_V1"),
    ("", "CICERO_BLS12381_SIG_V1"),
    ("cross-domain ordering handshake", "KAT_DOMAIN"),
];

const SIGN_SEEDS: [u64; 3] = [1, 42, 0xdead_beef];
const SIGN_MSG: &[u8] = b"conformance sign/verify round trip";

/// Builds the full fixture document from the current implementation.
fn current_fixtures() -> String {
    let mut out = String::from("{\n");

    let g1 = g1_generator().to_affine();
    out.push_str(&format!(
        "  \"g1_generator\": {{\"x\": \"{}\", \"y\": \"{}\"}},\n",
        hex(&g1.x.to_bytes_be()),
        hex(&g1.y.to_bytes_be())
    ));
    let g2 = g2_generator().to_affine();
    out.push_str(&format!(
        "  \"g2_generator\": {{\"x\": \"{}\", \"y\": \"{}\"}},\n",
        hex(&g2.x.to_bytes_be()),
        hex(&g2.y.to_bytes_be())
    ));

    out.push_str("  \"tower\": [\n");
    let tower = tower_vectors();
    for (i, (name, digest)) in tower.iter().enumerate() {
        let comma = if i + 1 == tower.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"digest\": \"{digest}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"hash_to_g1\": [\n");
    for (i, (msg, domain)) in HASH_VECTORS.iter().enumerate() {
        let p = hash_to_g1(msg.as_bytes(), domain).to_affine();
        let comma = if i + 1 == HASH_VECTORS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"msg\": \"{msg}\", \"domain\": \"{domain}\", \"x\": \"{}\", \"y\": \"{}\"}}{comma}\n",
            hex(&p.x.to_bytes_be()),
            hex(&p.y.to_bytes_be())
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"sign_verify\": [\n");
    for (i, &seed) in SIGN_SEEDS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&mut rng);
        let pk = sk.public_key();
        let sig = sk.sign(SIGN_MSG);
        let comma = if i + 1 == SIGN_SEEDS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"seed\": {seed}, \"pk_digest\": \"{}\", \"sig_x\": \"{}\", \"sig_y\": \"{}\"}}{comma}\n",
            hex(&sha256(&pk.to_bytes())),
            hex(&sig.0.x.to_bytes_be()),
            hex(&sig.0.y.to_bytes_be())
        ));
    }
    out.push_str("  ],\n");

    let e = reference::pairing(&g1, &g2);
    out.push_str(&format!("  \"pairing_digest\": \"{}\"\n", fp12_digest(&e)));
    out.push_str("}\n");
    out
}

fn fixtures() -> JsonValue {
    JsonValue::parse(FIXTURES).expect("tests/fixtures/bls_kat.json is valid JSON")
}

fn str_field<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("fixture {ctx}: missing string field {key:?}"))
}

#[test]
fn generator_coordinates_match_fixture() {
    let fx = fixtures();
    let g1 = g1_generator().to_affine();
    let v = fx.get("g1_generator").expect("g1_generator vector");
    assert_eq!(
        hex(&g1.x.to_bytes_be()),
        str_field(v, "x", "g1_generator"),
        "vector g1_generator.x: the derived G1 generator moved"
    );
    assert_eq!(
        hex(&g1.y.to_bytes_be()),
        str_field(v, "y", "g1_generator"),
        "vector g1_generator.y: the derived G1 generator moved"
    );
    let g2 = g2_generator().to_affine();
    let v = fx.get("g2_generator").expect("g2_generator vector");
    assert_eq!(
        hex(&g2.x.to_bytes_be()),
        str_field(v, "x", "g2_generator"),
        "vector g2_generator.x: the derived G2 generator moved"
    );
    assert_eq!(
        hex(&g2.y.to_bytes_be()),
        str_field(v, "y", "g2_generator"),
        "vector g2_generator.y: the derived G2 generator moved"
    );
}

#[test]
fn tower_arithmetic_matches_fixture() {
    let fx = fixtures();
    let recorded = fx
        .get("tower")
        .and_then(JsonValue::as_array)
        .expect("tower vectors");
    let current = tower_vectors();
    assert_eq!(
        recorded.len(),
        current.len(),
        "tower vector count changed — regenerate the fixture deliberately"
    );
    for (v, (name, digest)) in recorded.iter().zip(&current) {
        let rec_name = str_field(v, "name", "tower");
        let rec_digest = str_field(v, "digest", "tower");
        assert_eq!(rec_name, *name, "tower vector order changed at {name:?}");
        assert_eq!(
            rec_digest, digest,
            "vector tower/{name}: result digest changed"
        );
    }
}

#[test]
fn hash_to_g1_matches_fixture() {
    let fx = fixtures();
    let recorded = fx
        .get("hash_to_g1")
        .and_then(JsonValue::as_array)
        .expect("hash_to_g1 vectors");
    assert_eq!(recorded.len(), HASH_VECTORS.len());
    for (v, (msg, domain)) in recorded.iter().zip(&HASH_VECTORS) {
        assert_eq!(str_field(v, "msg", "hash_to_g1"), *msg);
        assert_eq!(str_field(v, "domain", "hash_to_g1"), *domain);
        let p = hash_to_g1(msg.as_bytes(), domain).to_affine();
        let ctx = format!("hash_to_g1[msg={msg:?}, domain={domain:?}]");
        assert_eq!(
            hex(&p.x.to_bytes_be()),
            str_field(v, "x", &ctx),
            "vector {ctx}: x moved"
        );
        assert_eq!(
            hex(&p.y.to_bytes_be()),
            str_field(v, "y", &ctx),
            "vector {ctx}: y moved"
        );
    }
}

#[test]
fn sign_verify_round_trips_match_fixture() {
    let fx = fixtures();
    let recorded = fx
        .get("sign_verify")
        .and_then(JsonValue::as_array)
        .expect("sign_verify vectors");
    assert_eq!(recorded.len(), SIGN_SEEDS.len());
    for (v, &seed) in recorded.iter().zip(&SIGN_SEEDS) {
        let ctx = format!("sign_verify[seed={seed}]");
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&mut rng);
        let pk = sk.public_key();
        let sig = sk.sign(SIGN_MSG);
        assert_eq!(
            hex(&sha256(&pk.to_bytes())),
            str_field(v, "pk_digest", &ctx),
            "vector {ctx}: public key derivation changed"
        );
        assert_eq!(
            hex(&sig.0.x.to_bytes_be()),
            str_field(v, "sig_x", &ctx),
            "vector {ctx}: signature x moved"
        );
        assert_eq!(
            hex(&sig.0.y.to_bytes_be()),
            str_field(v, "sig_y", &ctx),
            "vector {ctx}: signature y moved"
        );
        assert!(
            crate::bls::verify(&pk, SIGN_MSG, &sig),
            "vector {ctx}: round-trip verify failed"
        );
    }
}

#[test]
fn pairing_value_matches_fixture() {
    let fx = fixtures();
    let e = reference::pairing(&g1_generator().to_affine(), &g2_generator().to_affine());
    assert_eq!(
        fp12_digest(&e),
        str_field(&fx, "pairing_digest", "pairing"),
        "vector pairing_digest: e(G1, G2) changed"
    );
}

/// Regenerates `tests/fixtures/bls_kat.json` from the current
/// implementation. Ignored by default — run deliberately after an
/// intentional output change, then review the diff.
#[test]
#[ignore = "rewrites the fixture file; run explicitly after intentional changes"]
fn regen_fixtures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/bls_kat.json");
    std::fs::write(path, current_fixtures()).expect("write fixture file");
    println!("wrote {path}");
}
