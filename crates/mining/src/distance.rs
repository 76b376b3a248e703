//! String distances used for log-line clustering.

/// Levenshtein edit distance between two token slices.
///
/// Operating on whitespace tokens rather than characters makes the distance
/// robust to long variable substrings (ids, timestamps) that would dominate
/// a character-level metric.
pub fn token_levenshtein(a: &[&str], b: &[&str]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ta) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, tb) in b.iter().enumerate() {
            let cost = usize::from(ta != tb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalised token distance in `[0, 1]`: edit distance divided by the
/// longer token count. Two identical lines score 0; completely different
/// lines score 1.
///
/// # Examples
///
/// ```
/// use pod_mining::normalized_token_distance;
///
/// let d = normalized_token_distance(
///     "Terminated instance <id>",
///     "Terminated instance <id> cleanly",
/// );
/// assert!(d > 0.0 && d < 0.5);
/// assert_eq!(normalized_token_distance("a b c", "a b c"), 0.0);
/// ```
pub fn normalized_token_distance(a: &str, b: &str) -> f64 {
    let at: Vec<&str> = a.split_whitespace().collect();
    let bt: Vec<&str> = b.split_whitespace().collect();
    let max = at.len().max(bt.len());
    if max == 0 {
        return 0.0;
    }
    token_levenshtein(&at, &bt) as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_levenshtein_cases() {
        let kitten = ["k", "i", "t", "t", "e", "n"];
        let sitting = ["s", "i", "t", "t", "i", "n", "g"];
        assert_eq!(token_levenshtein(&kitten, &sitting), 3);
        assert_eq!(token_levenshtein(&[], &kitten), 6);
        assert_eq!(token_levenshtein(&kitten, &[]), 6);
        assert_eq!(token_levenshtein(&kitten, &kitten), 0);
    }

    #[test]
    fn token_distance_counts_tokens() {
        assert_eq!(token_levenshtein(&["a", "b", "c"], &["a", "x", "c"]), 1);
        assert_eq!(token_levenshtein(&["a"], &["a", "b", "c"]), 2);
    }

    #[test]
    fn normalized_bounds() {
        assert_eq!(normalized_token_distance("", ""), 0.0);
        assert_eq!(normalized_token_distance("a b", "c d"), 1.0);
        let d = normalized_token_distance("a b c d", "a b c x");
        assert!((d - 0.25).abs() < 1e-9);
    }

    #[test]
    fn symmetric() {
        let (a, b) = ("Launching instance i-1 now", "Launching instance i-2");
        assert_eq!(
            normalized_token_distance(a, b),
            normalized_token_distance(b, a)
        );
    }
}
