//! FNV-1a (64-bit): the one hash fold behind state fingerprints, chunk
//! keys, manifest ids and [`SimRng::derive`](crate::SimRng::derive) labels.

/// The FNV-1a offset basis: the state a fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a state `h`.
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over raw bytes (labels, plane names, string-valued state).
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Folds one word, as its little-endian bytes, into the running state `h`.
#[inline]
pub fn fnv1a_word(h: u64, w: u64) -> u64 {
    fnv1a_fold(h, &w.to_le_bytes())
}

/// FNV-1a over a word stream, each word folded as its little-endian bytes.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, fnv1a_word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a_bytes(b""), FNV_OFFSET);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_fold_as_little_endian_bytes() {
        let words = [1u64, u64::MAX, 0x0102_0304_0506_0708];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fnv1a(words), fnv1a_bytes(&bytes));
    }
}
