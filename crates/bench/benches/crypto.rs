//! Micro-benchmarks of the from-scratch threshold cryptography, on the
//! in-tree `substrate::benchkit` harness.
//!
//! These measurements ground the simulator's [`cicero_core::config::CostModel`]:
//! EXPERIMENTS.md compares them against the modeled per-operation costs
//! (which are calibrated to the paper's 2012-era Xeon testbed, not to this
//! host). Run with `BENCHKIT_OUT=BENCH_protocol.json` to merge the suite
//! into the recorded baseline.

use blscrypto::batch::{batch_verify, BatchItem};
use blscrypto::bls::{self, PreparedKey, SecretKey};
use blscrypto::curves::{g1_generator, g1_mul_glv_lever, g2_mul_generator, hash_to_g1};
use blscrypto::dkg;
use blscrypto::fields::{Fp, Fr};
use blscrypto::pairing::{
    final_exponentiation, g2_generator_prepared, multi_miller_loop, pairing, prepare_g2,
};
use blscrypto::reshare;
use blscrypto::shamir;
use cicero_core::auth::{pair_key, Peer};
use cicero_core::msg::AckBody;
use southbound::envelope::{MsgId, Tagged};
use southbound::types::{ControllerId, DomainId, EventId, Phase, SwitchId, UpdateId};
use std::hint::black_box;
use substrate::benchkit::Harness;
use substrate::rng::{SeedableRng, StdRng};

fn bench_field_and_curve(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Fr::random(&mut rng);
    let b = Fr::random(&mut rng);
    c.bench_function("fr_mul", |bch| bch.iter(|| black_box(a * b)));
    let g1 = g1_generator();
    c.bench_function("g1_scalar_mul", |bch| bch.iter(|| black_box(g1.mul_fr(a))));
    c.bench_function("hash_to_g1", |bch| {
        bch.iter(|| black_box(hash_to_g1(b"bench message", "BENCH")))
    });
    let p = g1.to_affine();
    let q = blscrypto::curves::g2_generator().to_affine();
    // One ate pairing from unprepared points: line table, Miller loop and
    // final exponentiation.
    c.bench_function("pairing", |bch| bch.iter(|| black_box(pairing(&p, &q))));
}

/// Per-lever entries isolating each optimization the fast verify path is
/// built from, so a regression names the lever rather than just "verify got
/// slower".
fn bench_levers(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Fr::random(&mut rng);
    let g1 = g1_generator();
    c.bench_function("g1_mul_wnaf", |bch| {
        bch.iter(|| black_box(g1.mul_limbs(&a.to_raw())))
    });
    // The same product by the GLV split `SecretKey::sign` uses.
    c.bench_function("g1_mul_glv", |bch| bch.iter(|| black_box(g1_mul_glv_lever(a))));
    // A product of the G2 generator on its fixed-base table: every Feldman
    // commitment point and the left side of every share check.
    c.bench_function("g2_mul_generator", |bch| bch.iter(|| black_box(g2_mul_generator(a))));

    let p = g1.to_affine();
    let p2 = g1.mul_fr(a).to_affine();
    let q2 = blscrypto::curves::g2_generator().mul_fr(a).to_affine();
    let prep_q2 = prepare_g2(&q2);
    // The bls_verify shape: two ate pairings sharing one Miller loop, both
    // G2 points prepared ahead of time (the group public key and the
    // generator are fixed across a run).
    c.bench_function("miller_loop_precomp", |bch| {
        bch.iter(|| {
            black_box(multi_miller_loop(&[
                (&p, g2_generator_prepared()),
                (&p2, &prep_q2),
            ]))
        })
    });
    let f = multi_miller_loop(&[(&p, g2_generator_prepared())]);
    c.bench_function("final_exp", |bch| {
        bch.iter(|| black_box(final_exponentiation(f)))
    });

    // Field work under every `to_affine` (inversion) and every
    // `hash_to_g1` attempt (wide reduction, residue test).
    let x = Fp::random(&mut rng);
    c.bench_function("fp_invert", |bch| bch.iter(|| black_box(black_box(x).invert())));
    c.bench_function("fp_is_square", |bch| {
        bch.iter(|| black_box(black_box(x).is_square()))
    });
    let wide = [0xa5u8; 64];
    c.bench_function("fp_from_bytes_wide_64", |bch| {
        bch.iter(|| black_box(Fp::from_bytes_wide(black_box(&wide))))
    });
}

/// Controller-side aggregate verification: one randomized pairing-product
/// check over `n` signed updates. The entry times the *whole batch*; the
/// paper-level target (amortized ≤ 2 ms per update) is enforced by
/// `benchgate` with a `batch_verify_64/64` cap.
fn bench_batch(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(8);
    let keys: Vec<SecretKey> = (0..64).map(|_| SecretKey::generate(&mut rng)).collect();
    let msgs: Vec<Vec<u8>> = (0..64u32)
        .map(|i| format!("update {i} switch {}", i % 7).into_bytes())
        .collect();
    let sigs: Vec<_> = keys
        .iter()
        .zip(&msgs)
        .map(|(k, m)| k.sign(m))
        .collect();
    let items: Vec<BatchItem<'_>> = keys
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((k, m), s)| BatchItem::new(k.public_key(), m, *s))
        .collect();
    for n in [16usize, 64] {
        c.bench_function(&format!("batch_verify_{n}"), |bch| {
            bch.iter(|| {
                let mut weights = StdRng::seed_from_u64(9);
                black_box(batch_verify(&items[..n], &mut weights))
            })
        });
    }
    // Four signers over one message — one hash, one G1 and one G2 weight
    // sum, two pairing terms.
    let shared: Vec<BatchItem<'_>> = keys[..4]
        .iter()
        .map(|k| BatchItem::new(k.public_key(), &msgs[0], k.sign(&msgs[0])))
        .collect();
    c.bench_function("batch_verify_4_same_msg", |bch| {
        bch.iter(|| {
            let mut weights = StdRng::seed_from_u64(9);
            black_box(batch_verify(&shared, &mut weights))
        })
    });
}

fn bench_bls(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(2);
    let sk = SecretKey::generate(&mut rng);
    let pk = sk.public_key();
    let msg = b"install flow rule 42";
    let sig = sk.sign(msg);
    c.bench_function("bls_sign", |bch| bch.iter(|| black_box(sk.sign(msg))));
    c.bench_function("bls_verify", |bch| {
        bch.iter(|| black_box(bls::verify(&pk, msg, &sig)))
    });
    // What a running node pays: the key's line table already built.
    let prepared = PreparedKey::from(pk);
    c.bench_function("bls_verify_prepared", |bch| {
        bch.iter(|| black_box(prepared.verify(msg, &sig)))
    });

    // Threshold: 4 shares, quorum 2 (the paper's n=4 control plane).
    let out = dkg::run_trusted_dealer_free(4, 1, &mut rng).unwrap();
    let partials: Vec<_> = out.participants[..2]
        .iter()
        .map(|p| bls::sign_share(&p.share, msg))
        .collect();
    c.bench_function("threshold_sign_share", |bch| {
        bch.iter(|| black_box(bls::sign_share(&out.participants[0].share, msg)))
    });
    c.bench_function("threshold_aggregate_q2", |bch| {
        bch.iter(|| black_box(bls::aggregate(&partials).unwrap()))
    });
    let agg = bls::aggregate(&partials).unwrap();
    c.bench_function("threshold_verify_aggregate", |bch| {
        bch.iter(|| black_box(bls::verify(&out.group_public_key, msg, &agg)))
    });
}

/// What one acknowledgement costs the pair it travels between: the switch's
/// tag and the controller's check of one `AckBody` under their shared key
/// (`CostModel::mac` is half of this entry).
fn bench_mac(c: &mut Harness) {
    let key = [0x5a; 32];
    let body = AckBody {
        update: UpdateId {
            event: EventId(7 << 32 | 1),
            seq: 2,
        },
        switch: SwitchId(7),
    };
    let id = MsgId { origin: 7, seq: 1 };
    c.bench_function("hmac_tag_ack", |bch| {
        bch.iter(|| {
            let msg = Tagged::tag("CICERO_ACK_V1", black_box(body), Phase(0), id, &key);
            black_box(msg.verify("CICERO_ACK_V1", black_box(&key)))
        })
    });
}

/// What a pair key costs the first time an end uses it: one G2 scalar
/// multiplication of the peer's identity key, its encoding, and the HKDF.
/// Each node pays it once per peer, then keeps the key.
fn bench_pair_key(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(10);
    let (a, b) = (SecretKey::generate(&mut rng), SecretKey::generate(&mut rng));
    let pk = b.public_key();
    let (from, to) = (Peer::Switch(SwitchId(7)), Peer::Controller(DomainId(0), ControllerId(1)));
    c.bench_function("pair_key_derive", |bch| {
        bch.iter(|| black_box(pair_key(&a, black_box(&pk), from, to)))
    });
}

fn bench_dkg_and_reshare(c: &mut Harness) {
    let mut group = c.benchmark_group("ceremonies");
    group.sample_size(10);
    group.bench_function("dkg_n4_t1", |bch| {
        bch.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(dkg::run_trusted_dealer_free(4, 1, &mut rng).unwrap())
        })
    });
    let mut rng = StdRng::seed_from_u64(4);
    let out = dkg::run_trusted_dealer_free(4, 1, &mut rng).unwrap();
    group.bench_function("reshare_4_to_5", |bch| {
        bch.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            black_box(
                reshare::run_reshare(&out, dkg::DkgConfig::byzantine(5).unwrap(), &mut rng)
                    .unwrap(),
            )
        })
    });
    group.bench_function("shamir_share_reconstruct_t3_n10", |bch| {
        bch.iter(|| {
            let mut rng = StdRng::seed_from_u64(6);
            let secret = Fr::random(&mut rng);
            let (_, shares) = shamir::share_secret(secret, 3, 10, &mut rng);
            black_box(shamir::reconstruct(&shares[..4], 3).unwrap())
        })
    });
    group.finish();
}

fn main() {
    let mut harness = Harness::new("crypto");
    bench_field_and_curve(&mut harness);
    bench_levers(&mut harness);
    bench_batch(&mut harness);
    bench_bls(&mut harness);
    bench_mac(&mut harness);
    bench_pair_key(&mut harness);
    bench_dkg_and_reshare(&mut harness);
    harness.finish();
}
