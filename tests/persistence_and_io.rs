//! Integration tests of persistence and IO across crates: CSA round-trips
//! through bytes, datasets round-trip through fvecs, and a rebuilt-from-disk
//! index answers identically.

use csa::Csa;
use dataset::{io, Metric, SynthSpec};
use lccs_lsh::{LccsLsh, LccsParams};
use std::sync::Arc;

#[test]
fn csa_of_real_hash_strings_roundtrips() {
    let spec = SynthSpec::glove_like().with_n(500);
    let data = Arc::new(spec.generate(4));
    let idx = LccsLsh::build(data, Metric::Euclidean, &LccsParams::euclidean(10.0).with_m(24));
    let bytes = idx.csa().to_bytes();
    let back = Csa::from_bytes(bytes).expect("decode");
    assert_eq!(&back, idx.csa());
    // identical search behaviour
    let q: Vec<u64> = idx.csa().strings().row(17);
    assert_eq!(back.search(&q, 5), idx.csa().search(&q, 5));
}

#[test]
fn dataset_fvecs_roundtrip_preserves_ann_results() {
    let spec = SynthSpec::sift_like().with_n(400);
    let data = spec.generate(8);
    let mut buf = Vec::new();
    io::write_fvecs_to(&mut buf, &data).unwrap();
    let reloaded = Arc::new(io::read_fvecs_from(&buf[..], "Sift", None).unwrap());

    let idx = LccsLsh::build(
        reloaded.clone(),
        Metric::Euclidean,
        &LccsParams::euclidean(30.0).with_m(16).with_seed(5),
    );
    let idx2 = LccsLsh::build(
        Arc::new(data.clone()),
        Metric::Euclidean,
        &LccsParams::euclidean(30.0).with_m(16).with_seed(5),
    );
    for i in [0usize, 100, 399] {
        let a = idx.query(reloaded.get(i), 5, 64);
        let b = idx2.query(data.get(i), 5, 64);
        assert_eq!(
            a.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            "fvecs round-trip must not change results"
        );
    }
}

#[test]
fn corrupt_index_payloads_are_rejected_not_misread() {
    let spec = SynthSpec::deep_like().with_n(100);
    let data = Arc::new(spec.generate(1));
    let idx = LccsLsh::build(data, Metric::Euclidean, &LccsParams::euclidean(20.0).with_m(8));
    let good = idx.csa().to_bytes().to_vec();
    // Flip the most-significant bits of every header byte (magic, n, m):
    // every such mutation must be rejected, never panic or misread.
    for pos in 0..20 {
        let mut bad = good.clone();
        bad[pos] ^= 0x80;
        assert!(
            Csa::from_bytes(&bad[..]).is_err(),
            "header mutation at byte {pos} must be rejected"
        );
    }
    // Truncations anywhere must be rejected too.
    for cut in [0usize, 10, good.len() / 2, good.len() - 1] {
        assert!(Csa::from_bytes(&good[..cut]).is_err());
    }
}
