//! The fixed-way set-associative LRU array both the TLB entry arrays and
//! the machine's caches are built on.
//!
//! One flat `sets × ways` slab of `u64` keys plus a per-set length. Each
//! set occupies a contiguous run of the slab, kept MRU first, so true LRU
//! order is the slab order: a single scan finds a key and its stack
//! position, a hit is re-fronted by rotating the set's prefix in place,
//! and the LRU victim is the set's last live key. No per-set allocation,
//! no pointer chase from the set index to its keys. The slab is allocated
//! by the first insert, so building a machine does not pay for a cache
//! before its first access.

/// A set-associative array of `u64` keys with true LRU per set. Keys are
/// indexed by their low bits (`key & (sets - 1)`).
#[derive(Debug)]
pub struct SetArray {
    /// Set `s` holds `keys[s * ways..][..len[s]]`, MRU first. Empty
    /// until the first insert.
    keys: Vec<u64>,
    len: Box<[u16]>,
    ways: usize,
    mask: u64,
}

/// The outcome of [`SetArray::access`]; either way the key ends up MRU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The key was resident at this stack position (0 = MRU).
    Hit(usize),
    /// The key was absent and has been inserted, evicting this key when
    /// its set was full.
    Miss(Option<u64>),
}

impl SetArray {
    /// An empty array of `sets` sets of `ways` ways. `sets` must be zero
    /// or a power of two; a zero-set array is legal and never hits (the
    /// Opteron L2 DTLB's 2 MB row).
    pub fn new(sets: usize, ways: u16) -> Self {
        assert!(
            sets == 0 || sets.is_power_of_two(),
            "set count {sets} must be a power of two for masking"
        );
        assert!(sets == 0 || ways > 0, "ways must be positive");
        let ways = ways as usize;
        SetArray {
            keys: Vec::new(),
            len: vec![0; sets].into_boxed_slice(),
            ways,
            mask: sets.saturating_sub(1) as u64,
        }
    }

    /// Live keys across all sets.
    pub fn occupancy(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// The live keys of `key`'s set, MRU first (empty before the first
    /// insert, so always empty without sets).
    #[inline]
    fn live(&self, key: u64) -> &[u64] {
        if self.keys.is_empty() {
            return &[];
        }
        let s = (key & self.mask) as usize;
        &self.keys[s * self.ways..][..self.len[s] as usize]
    }

    /// All `ways` slots of `key`'s set and its live length, allocating
    /// the slab on first use. The array must have sets.
    #[inline]
    fn slots(&mut self, key: u64) -> (&mut [u64], &mut u16) {
        if self.keys.is_empty() {
            self.allocate();
        }
        let s = (key & self.mask) as usize;
        (
            &mut self.keys[s * self.ways..][..self.ways],
            &mut self.len[s],
        )
    }

    #[cold]
    fn allocate(&mut self) {
        self.keys = vec![0; self.len.len() * self.ways];
    }

    /// Stack position of `key` in its set (0 = MRU), without reordering.
    #[inline]
    pub fn find(&self, key: u64) -> Option<usize> {
        self.live(key).iter().position(|&k| k == key)
    }

    /// Move the entry at stack position `pos` of `key`'s set to the front.
    /// `pos` must come from a [`find`](SetArray::find) of `key` with no
    /// change to the array in between.
    #[inline]
    pub fn promote(&mut self, key: u64, pos: usize) {
        self.slots(key).0[..=pos].rotate_right(1);
    }

    /// True when `key` is the MRU entry of its set.
    #[inline]
    pub fn is_mru(&self, key: u64) -> bool {
        self.live(key).first() == Some(&key)
    }

    /// Look `key` up in a single scan of its set and make it MRU:
    /// re-front it on a hit, insert it on a miss. A zero-set array
    /// misses and stores nothing.
    #[inline]
    pub fn access(&mut self, key: u64) -> Access {
        if self.len.is_empty() {
            return Access::Miss(None);
        }
        let (set, len) = self.slots(key);
        match set[..*len as usize].iter().position(|&k| k == key) {
            Some(pos) => {
                set[..=pos].rotate_right(1);
                Access::Hit(pos)
            }
            None => Access::Miss(Self::push_front(set, len, key)),
        }
    }

    /// Put `key`, which must not be resident, at the front of its set,
    /// evicting the set's LRU key when the set is full. Returns the
    /// evicted key. A no-op on a zero-set array.
    #[inline]
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        if self.len.is_empty() {
            return None;
        }
        let (set, len) = self.slots(key);
        Self::push_front(set, len, key)
    }

    /// Shift the `len` live keys of `set` down one slot, dropping the
    /// last when the set is full, and put `key` first; returns the
    /// dropped key.
    #[inline]
    fn push_front(set: &mut [u64], len: &mut u16, key: u64) -> Option<u64> {
        let n = *len as usize;
        let evicted = if n == set.len() {
            set.last().copied()
        } else {
            *len += 1;
            None
        };
        set.copy_within(0..n.min(set.len() - 1), 1);
        set[0] = key;
        evicted
    }

    /// Remove `key` if resident; returns whether it was.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(pos) = self.find(key) else {
            return false;
        };
        let (set, len) = self.slots(key);
        set[pos..*len as usize].rotate_left(1);
        *len -= 1;
        true
    }

    /// Empty every set.
    pub fn clear(&mut self) {
        self.len.fill(0);
    }
}

#[cfg(test)]
mod tests {
    //! Behaviour against a naive LRU model, on every preset TLB and cache
    //! geometry, is checked by `tlb_array_matches_reference_lru` and
    //! `cache_matches_reference_lru` in the root package's property tests.
    use super::*;

    #[test]
    fn hit_reports_stack_position_and_refronts() {
        let mut a = SetArray::new(1, 4);
        for k in [1, 2, 3] {
            assert_eq!(a.insert(k), None);
        }
        // MRU first: 3, 2, 1.
        assert_eq!(a.find(1), Some(2));
        assert_eq!(a.access(1), Access::Hit(2));
        assert!(a.is_mru(1));
        assert_eq!(a.find(3), Some(1));
        assert_eq!(a.find(2), Some(2));
    }

    #[test]
    fn queries_before_the_first_insert_see_an_empty_array() {
        let mut a = SetArray::new(4, 2);
        assert_eq!(a.find(5), None);
        assert!(!a.is_mru(5));
        assert!(!a.remove(5));
        a.clear();
        assert_eq!(a.access(5), Access::Miss(None));
        assert_eq!(a.find(5), Some(0));
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn zero_sets_never_hit() {
        let mut a = SetArray::new(0, 4);
        assert_eq!(a.insert(1), None);
        assert_eq!(a.access(1), Access::Miss(None));
        assert!(!a.is_mru(1));
        assert!(!a.remove(1));
        assert_eq!(a.occupancy(), 0);
    }
}
