//! The benchmark's only source of randomness: SplitMix64 seeded from
//! `--seed`, so an op list depends on the seed and nothing else (no
//! `vendor/rand`, no clock, no hash-map order).

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent generator for a numbered sub-stream (one per
    /// client, one per generated score), so streams do not depend on how
    /// many values their siblings drew.
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut mix = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A class mix dealt in shuffled blocks: every block of ops holds
/// exactly the stated count of each class, in a seed-dependent order.
/// Drawing each op's class independently would let the share of slow
/// ops in a segment wander by several per cent from run to run; dealt
/// this way only the order does.
#[derive(Debug, Clone)]
pub struct Mix {
    block: Vec<u8>,
    next: usize,
}

impl Mix {
    /// `counts[c]` ops of class `c` per block.
    pub fn new(counts: &[usize]) -> Mix {
        let block: Vec<u8> = counts
            .iter()
            .enumerate()
            .flat_map(|(class, &n)| std::iter::repeat_n(class as u8, n))
            .collect();
        assert!(!block.is_empty(), "an empty mix");
        Mix {
            next: block.len(),
            block,
        }
    }

    pub fn deal(&mut self, rng: &mut SplitMix64) -> u8 {
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// FNV-1a, the digest behind `ops_hash` and the op-list hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map(|_| SplitMix64::stream(7, 1).next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::stream(7, 1).next_u64(),
            SplitMix64::stream(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::stream(7, 1).next_u64(),
            SplitMix64::stream(8, 1).next_u64()
        );
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::stream(3, 0);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
    }

    #[test]
    fn mix_deals_exact_blocks() {
        let mut mix = Mix::new(&[12, 5, 2, 1]);
        let mut rng = SplitMix64::stream(4, 0);
        let mut orders = std::collections::BTreeSet::new();
        for _ in 0..10 {
            let block: Vec<u8> = (0..20).map(|_| mix.deal(&mut rng)).collect();
            for (class, want) in [12, 5, 2, 1].into_iter().enumerate() {
                assert_eq!(block.iter().filter(|&&c| c as usize == class).count(), want);
            }
            orders.insert(block);
        }
        assert!(orders.len() > 1, "blocks are shuffled");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 0.99);
        let mut rng = SplitMix64::stream(1, 0);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
        assert!(hits[0] > 20_000 / 10);
    }
}
