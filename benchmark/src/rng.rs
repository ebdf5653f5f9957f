//! The benchmark's only source of randomness: the workspace's `rand` stand-in
//! (`crates/shims/rand`, splitmix64) seeded from `--seed`, plus the two things
//! it lacks — a shuffle and the Zipf sampler the read workload draws keys from.

pub use rand::rngs::SmallRng;
pub use rand::Rng;
use rand::SeedableRng;

/// The generator for one purpose (`tag`) of a run with `seed`: adding a draw to
/// one stream never shifts another.
pub fn stream(seed: u64, tag: u64) -> SmallRng {
    let mut rng = SmallRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64();
    rng
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `r` is drawn with weight `1 / (r + 1)`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// The sampler over `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        // 53 random bits make a uniform float in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cumulative
            .partition_point(|&c| c <= unit * total)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_tags_differ() {
        assert_eq!(stream(7, 1).next_u64(), stream(7, 1).next_u64());
        assert_ne!(stream(7, 1).next_u64(), stream(7, 2).next_u64());
        let mut items: Vec<u32> = (0..100).collect();
        shuffle(&mut items, &mut stream(7, 1));
        assert_ne!(items, (0..100).collect::<Vec<u32>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(4096);
        let mut rng = stream(1, 0);
        let draws = 100_000;
        let top = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
        // H(4096) is about 8.9, so rank 0 takes about 11 % of the draws.
        assert!((10_000..13_000).contains(&top), "{top}");
    }
}
