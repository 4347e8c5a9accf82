//! Golden ChaCha8 word stream.
//!
//! `tests/fixtures/rng_stream.txt` holds the first draws of `ChaCha8Rng` for several
//! `seed_from_u64` seeds, captured from the one-block-per-refill scalar implementation
//! before the generator moved to a four-block buffer. Every tour, mask and tie-break in
//! the workspace is a function of this stream, so it must never move; the fixture is
//! not regenerated.
//!
//! Each line is `seed|w0,w1,...`. Draw `k` is a `next_u32` (8 hex digits) when
//! `k % 3 == 0` and a `next_u64` (16 hex digits) otherwise, so draws start at word
//! offsets of both parities and some `next_u64` straddles a 64-word buffer boundary.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Words a seed's line must cover, at least.
const MIN_WORDS: usize = 256;

#[test]
fn chacha8_stream_matches_the_scalar_fixture() {
    let fixture = include_str!("fixtures/rng_stream.txt");
    let mut seeds = 0;
    for line in fixture.lines().filter(|l| !l.trim().is_empty()) {
        let (seed, draws) = line.split_once('|').expect("seed|draws");
        let seed: u64 = seed.parse().expect("decimal seed");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut word = 0usize;
        let mut straddles = 0;
        for (k, hex) in draws.split(',').enumerate() {
            let expected = u64::from_str_radix(hex, 16).expect("hex draw");
            let got = if k % 3 == 0 {
                assert_eq!(hex.len(), 8, "seed {seed}, draw {k} must be a u32");
                word += 1;
                u64::from(rng.next_u32())
            } else {
                assert_eq!(hex.len(), 16, "seed {seed}, draw {k} must be a u64");
                if word % 64 == 63 {
                    straddles += 1;
                }
                word += 2;
                rng.next_u64()
            };
            assert_eq!(got, expected, "seed {seed}, draw {k} (word {word})");
        }
        assert!(word >= MIN_WORDS, "seed {seed} pins only {word} words");
        assert!(
            straddles > 0,
            "seed {seed}: no u64 straddles a 64-word boundary"
        );
        seeds += 1;
    }
    assert!(
        seeds >= 4,
        "fixture must cover several seeds, found {seeds}"
    );
}
