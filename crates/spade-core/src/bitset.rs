//! A fixed-length set of small indices, one bit each, for the per-register
//! VRF status bits and the event loop's due-PE sets. Both are sized by a
//! plain config field (`vrf_regs`, `num_pes`), so the set spans as many
//! 64-bit words as it needs.

/// The indices of the set bits of `words` in ascending order; bit `b` of
/// word `w` is index `64 * w + b`.
pub(crate) fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                64 * w + bit
            })
        })
    })
}

/// A set of indices below a fixed length.
#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set of indices below `len`.
    pub(crate) fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// The set of every index below `len`.
    pub(crate) fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        s.insert_below(len);
        s
    }

    /// Adds every index below `len`.
    pub(crate) fn insert_below(&mut self, len: usize) {
        let (whole, rest) = (len / 64, len % 64);
        self.words[..whole].fill(u64::MAX);
        if rest != 0 {
            self.words[whole] |= (1 << rest) - 1;
        }
    }

    /// The backing words, for combining several sets word by word.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds `i`; returns whether it was absent.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let absent = !self.contains(i);
        self.words[i / 64] |= 1 << (i % 64);
        absent
    }

    /// Removes `i`; returns whether it was present.
    pub(crate) fn remove(&mut self, i: usize) -> bool {
        let present = self.contains(i);
        self.words[i / 64] &= !(1 << (i % 64));
        present
    }

    /// Removes every index.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest index in the set.
    pub(crate) fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The indices in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(self.words.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip_across_word_boundaries() {
        let mut s = BitSet::new(130);
        for i in [0, 63, 64, 127, 129] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 129]);
        assert_eq!(s.iter().count(), 5);
        assert_eq!(s.first(), Some(0));
        s.remove(0);
        assert!(!s.contains(0) && s.contains(63));
        assert_eq!(s.first(), Some(63));
        s.clear();
        assert!(s.is_empty() && s.first().is_none());
    }

    #[test]
    fn full_sets_stop_at_their_length() {
        for len in [1, 8, 63, 64, 65, 100, 128] {
            let s = BitSet::full(len);
            assert_eq!(s.iter().count(), len);
            assert_eq!(s.iter().last(), Some(len - 1));
        }
    }
}
