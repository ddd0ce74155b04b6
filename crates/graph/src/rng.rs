//! Deterministic random-number-generator helpers.
//!
//! All simulations in this repository are seeded so that every experiment in
//! EXPERIMENTS.md can be regenerated bit-for-bit.  ChaCha8 is used rather
//! than the default `StdRng` because its stream is stable across `rand`
//! versions and platforms.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The RNG type used throughout the workspace.
pub type SimRng = ChaCha8Rng;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded_rng(seed: u64) -> SimRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// SplitMix64 finalizer, used to derive decorrelated per-shard streams in
/// the sharded runtime from one base seed.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a sub-RNG for a named component from a base seed.
///
/// Mixing the label into the seed lets independent components (e.g. graph
/// generation vs. report walks) draw from decorrelated streams while the
/// whole experiment remains reproducible from a single seed.
pub fn derived_rng(seed: u64, label: &str) -> SimRng {
    // FNV-1a over the label, folded into the seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ChaCha8Rng::seed_from_u64(seed ^ h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let same = (0..16).all(|_| a.gen::<u64>() == b.gen::<u64>());
        assert!(!same);
    }

    #[test]
    fn derived_rng_depends_on_label() {
        let mut a = derived_rng(7, "graph");
        let mut b = derived_rng(7, "walk");
        let same = (0..16).all(|_| a.gen::<u64>() == b.gen::<u64>());
        assert!(!same);

        let mut c = derived_rng(7, "graph");
        let mut d = derived_rng(7, "graph");
        for _ in 0..16 {
            assert_eq!(c.gen::<u64>(), d.gen::<u64>());
        }
    }
}
