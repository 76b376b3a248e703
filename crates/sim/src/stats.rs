//! Order statistics shared by the evaluation and mining crates.

/// The `q`-quantile of an ascending-sorted slice by the nearest-rank
/// method: the element at rank `⌈q·n⌉`, clamped to `1..=n` (so `q = 0`
/// gives the minimum and `q = 1` the maximum). `None` when empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), Some(50));
        assert_eq!(nearest_rank(&sorted, 0.95), Some(95));
        assert_eq!(nearest_rank(&sorted, 0.99), Some(99));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(100));
        assert_eq!(nearest_rank(&[7], 0.99), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }
}
