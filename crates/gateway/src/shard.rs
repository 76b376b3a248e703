//! Shard routing: a stable hash from (process id, instance id) to a shard.
//!
//! Routing must be *deterministic* (the same key always lands on the same
//! shard, across runs and across gateway instances) and *stable* (keys only
//! move when the shard count changes). A plain FNV-1a hash over the two id
//! strings — with a separator byte so `("ab", "c")` and `("a", "bc")` hash
//! differently — modulo the shard count gives both properties without any
//! per-process randomization, unlike `std`'s `DefaultHasher`.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a hash of the routing key.
fn route_hash(process_id: &str, instance_id: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for byte in process_id
        .as_bytes()
        .iter()
        .chain(&[0xFFu8])
        .chain(instance_id.as_bytes())
    {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The shard index for an operation key, in `0..shards`.
///
/// # Panics
///
/// Panics when `shards` is zero.
///
/// # Examples
///
/// ```
/// use pod_gateway::shard_for;
///
/// let s = shard_for("rolling-upgrade", "run-17", 8);
/// assert!(s < 8);
/// assert_eq!(s, shard_for("rolling-upgrade", "run-17", 8));
/// ```
pub fn shard_for(process_id: &str, instance_id: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be non-zero");
    (route_hash(process_id, instance_id) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic() {
        for i in 0..64 {
            let id = format!("run-{i}");
            assert_eq!(
                shard_for("rolling-upgrade", &id, 8),
                shard_for("rolling-upgrade", &id, 8)
            );
        }
    }

    #[test]
    fn separator_prevents_key_gluing() {
        assert_ne!(route_hash("ab", "c"), route_hash("a", "bc"));
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let mut counts = [0usize; 8];
        for i in 0..800 {
            counts[shard_for("rolling-upgrade", &format!("run-{i}"), 8)] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!((50..=150).contains(&n), "shard {shard} got {n} of 800 keys");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_shards_panics() {
        shard_for("p", "i", 0);
    }
}
