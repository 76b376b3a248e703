//! The one growth rule for the buffers a run keeps for its whole life.
//!
//! A `Vec` or `VecDeque` that doubles holds up to twice the room its items
//! need. The per-tenant buffers a replay keeps — the causal event ring, the
//! account's scaling activities, central storage's entries — are many and
//! small, so the room past the last item adds up over a fleet. A full
//! buffer of `len` items grows by [`growth_step`]`(len)` slots instead: it
//! doubles while small, then grows by an eighth, so it never holds more
//! spare room than that step.

/// How many slots a full buffer of `len` items grows by:
/// `min(len, max(16, len / 8))`, and at least 4.
///
/// # Examples
///
/// ```
/// use pod_sim::growth_step;
///
/// assert_eq!(growth_step(0), 4);
/// assert_eq!(growth_step(8), 8, "a small buffer doubles");
/// assert_eq!(growth_step(64), 16);
/// assert_eq!(growth_step(800), 100, "a large one grows by an eighth");
/// ```
pub fn growth_step(len: usize) -> usize {
    len.min((len / 8).max(16)).max(4)
}

/// Appends `item` to `buf`, growing a full `buf` by [`growth_step`] slots.
///
/// # Examples
///
/// ```
/// use pod_sim::push_bounded;
///
/// let mut buf = Vec::new();
/// for i in 0..200 {
///     push_bounded(&mut buf, i);
/// }
/// assert!(buf.capacity() - buf.len() <= pod_sim::growth_step(buf.len()));
/// ```
pub fn push_bounded<T>(buf: &mut Vec<T>, item: T) {
    if buf.len() == buf.capacity() {
        buf.reserve_exact(growth_step(buf.len()));
    }
    buf.push(item);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buffer_never_holds_more_spare_room_than_one_step() {
        let mut buf = Vec::new();
        let mut capacities = Vec::new();
        for i in 0..5_000u32 {
            push_bounded(&mut buf, i);
            let spare = buf.capacity() - buf.len();
            assert!(
                spare <= growth_step(buf.len()),
                "{spare} spare at {}",
                buf.len()
            );
            if capacities.last() != Some(&buf.capacity()) {
                capacities.push(buf.capacity());
            }
        }
        assert_eq!(
            capacities[..6],
            [4, 8, 16, 32, 48, 64],
            "doubles while small"
        );
    }
}
