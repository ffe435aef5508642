//! Using the Circular Shift Array directly as a string index — no LSH
//! involved. The paper notes that "CSA is potentially of separate interest
//! for other fields of computer science": here it answers k-LCCS queries
//! over circular genome-like sequences (e.g. bacterial plasmids, where
//! sequences have no canonical starting point).
//!
//! ```sh
//! cargo run --release --example csa_strings
//! ```

use csa::{naive, Csa, StringSet};

/// Encodes a DNA string over {A, C, G, T} into symbols.
fn encode(s: &str) -> Vec<u64> {
    s.bytes()
        .map(|b| match b {
            b'A' => 0,
            b'C' => 1,
            b'G' => 2,
            b'T' => 3,
            _ => panic!("not a DNA base: {}", b as char),
        })
        .collect()
}

fn main() {
    // A small library of circular sequences (all the same length — e.g.
    // fixed-window plasmid fingerprints).
    let library = [
        "ACGTACGTACGTGGCA",
        "TTGACGTACGAACGTA", // shares a long circular run with the query
        "GGGGCCCCAAAATTTT",
        "ACGTTGCAACGTTGCA",
        "CATGCATGCATGCATG",
        "TACGTACGTACGTGGC", // rotation-mate of the first entry
    ];
    let rows: Vec<Vec<u64>> = library.iter().map(|s| encode(s)).collect();
    let set = StringSet::from_rows(&rows);
    let csa = Csa::build(set.clone());

    let query = "ACGTACGTACGTGGCT"; // one base off library[0]
    let q = encode(query);

    println!("query: {query}\n");
    println!("top-3 by longest circular co-substring:");
    for c in csa.search(&q, 3) {
        println!(
            "  #{} {:<18} |LCCS| = {:>2}  (naive check: {})",
            c.id,
            library[c.id as usize],
            c.len,
            naive::lccs_len(&set.row(c.id as usize), &q)
        );
    }

    // The same machinery works for any total-ordered symbols — the LCCS-LSH
    // scheme just feeds it hash values instead of bases.
    println!("\nindex size: {} bytes for {} strings of length {}",
        csa.nbytes(), set.len(), set.m());
}
