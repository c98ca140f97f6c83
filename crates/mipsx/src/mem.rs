//! The simulated data memory.
//!
//! A run touches little of the memory map it is configured with: a
//! 25k-cycle program writes its data image, a few stack frames and the front
//! of one semispace. So [`Mem`] reserves the whole size up front but zeroes
//! only a *materialised prefix*, which grows (zero-filled, in
//! [`GROW_WORDS`]-word steps) when a store lands past it. The prefix reaches
//! the highest word stored, so everything below it is zeroed too: under the
//! Lisp layout, whose stack grows down from the base of the heap, a run
//! materialises the whole stack region at its first push. A load past the
//! prefix reads 0, as the zeroed word would. Addresses, [`Mem::size`] and
//! the fault at `size()` are the same as for a memory zeroed in full; only
//! [`Mem::words`] shows the difference.

/// Words the materialised prefix grows by at a time (16 KiB), rounded so a
/// run that walks up its stack or heap grows it a few times, not once per
/// word.
const GROW_WORDS: usize = 4 << 10;

/// Word-organised data memory with byte addressing.
///
/// Addresses are byte addresses; accesses are word-aligned (the CPU masks the low
/// two bits before calling in, mirroring MIPS-X's word-aligned memory system).
///
/// A memory reserves its whole size but zeroes only a *materialised prefix*,
/// which grows when a store lands past it; every word past the prefix reads
/// as 0. So setting up a run costs what the run touches, not the memory map.
/// Only [`words`](Mem::words) shows the prefix.
#[derive(Debug)]
pub struct Mem {
    /// The materialised prefix. Its capacity is reserved for the whole
    /// memory, so growing it never moves it.
    words: Vec<u32>,
    /// Size in words.
    size: usize,
}

impl Mem {
    /// A memory of `bytes` bytes (rounded up to a whole word) that reads as
    /// zeroes. Nothing is materialised yet.
    pub fn new(bytes: usize) -> Self {
        let size = bytes.div_ceil(4);
        Mem {
            words: Vec::with_capacity(size),
            size,
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.size * 4
    }

    /// Read the word at byte address `addr` (low two bits ignored).
    ///
    /// Returns `None` when the address is outside memory.
    #[inline]
    pub fn load(&self, addr: u32) -> Option<u32> {
        let i = (addr >> 2) as usize;
        match self.words.get(i) {
            Some(&w) => Some(w),
            None => (i < self.size).then_some(0),
        }
    }

    /// Write the word at byte address `addr` (low two bits ignored).
    ///
    /// Returns `false` when the address is outside memory.
    #[inline]
    pub fn store(&mut self, addr: u32, value: u32) -> bool {
        let i = (addr >> 2) as usize;
        match self.words.get_mut(i) {
            Some(w) => {
                *w = value;
                true
            }
            None => self.store_past_prefix(i, value),
        }
    }

    /// [`store`](Self::store) at word `i`, past the materialised prefix:
    /// grow the prefix to cover it, unless it is outside memory.
    #[cold]
    fn store_past_prefix(&mut self, i: usize, value: u32) -> bool {
        if i >= self.size {
            return false;
        }
        let len = (i + 1).next_multiple_of(GROW_WORDS).min(self.size);
        self.words.resize(len, 0);
        self.words[i] = value;
        true
    }

    /// The materialised prefix, word-indexed from address 0 (for test
    /// assertions and heap dumps). Every word past it, up to
    /// [`size`](Self::size), reads as 0, so two memories can hold the same
    /// contents behind prefixes of different lengths: compare them with
    /// [`first_difference`](Self::first_difference), not through this.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The lowest byte address at which `self` and `other` read differently,
    /// over the larger of the two sizes, reading every word past a memory's
    /// materialised prefix (or past its size) as 0. `None` when they agree
    /// everywhere.
    pub fn first_difference(&self, other: &Mem) -> Option<u32> {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let tail = long[short.len()..].iter().map(|&w| (w, 0));
        short
            .iter()
            .zip(long)
            .map(|(&a, &b)| (a, b))
            .chain(tail)
            .position(|(a, b)| a != b)
            .map(|w| (w * 4) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle memory map's size: a 768 KiB semispace pair plus the
    /// stack and the static data of a typical program.
    const MAP: usize = 1_837_808;

    #[test]
    fn round_trip_and_alignment() {
        let mut m = Mem::new(64);
        assert!(m.store(8, 0xdead_beef));
        assert_eq!(m.load(8), Some(0xdead_beef));
        // low bits ignored
        assert_eq!(m.load(9), Some(0xdead_beef));
        assert_eq!(m.load(11), Some(0xdead_beef));
    }

    #[test]
    fn out_of_range() {
        let mut m = Mem::new(8);
        assert_eq!(m.load(8), None);
        assert!(!m.store(100, 1));
    }

    #[test]
    fn size_rounds_up() {
        assert_eq!(Mem::new(5).size(), 8);
        assert_eq!(Mem::new(0).size(), 0);
    }

    #[test]
    fn a_fresh_memory_materialises_nothing() {
        let m = Mem::new(MAP);
        assert!(m.words().is_empty());
        assert_eq!(m.size(), MAP);
    }

    #[test]
    fn loads_past_the_prefix_read_zero() {
        let mut m = Mem::new(MAP);
        assert!(m.store(0, 7));
        let last = (MAP - 4) as u32;
        assert!(
            m.words().len() * 4 <= last as usize,
            "the end is not materialised"
        );
        assert_eq!(m.load(last), Some(0));
        assert_eq!(m.load(MAP as u32 / 2), Some(0));
        assert_eq!(m.size(), MAP);
    }

    #[test]
    fn a_store_past_the_prefix_grows_it_and_reads_back() {
        let mut m = Mem::new(MAP);
        let addr = 100_000u32;
        assert!(m.store(addr, 0xfeed));
        let len = m.words().len();
        assert!(len > (addr / 4) as usize, "the prefix covers the store");
        assert_eq!(len % GROW_WORDS, 0, "it grows in whole steps");
        assert_eq!(m.load(addr), Some(0xfeed));
        assert_eq!(m.load(addr - 4), Some(0), "the words it grew over are zero");
        assert_eq!(m.load(addr + 4), Some(0));
        // The last word of memory grows the prefix to exactly the size.
        let last = (MAP - 4) as u32;
        assert!(m.store(last, 1));
        assert_eq!(m.words().len() * 4, MAP);
        assert_eq!(m.load(last), Some(1));
        assert_eq!(m.load(addr), Some(0xfeed), "growing kept what was stored");
        assert_eq!(m.size(), MAP);
    }

    /// The fault sits at `size()`, past the last whole word, whether or not
    /// the size was a multiple of 4 and whether or not the prefix reaches it.
    #[test]
    fn loads_and_stores_fault_exactly_at_size() {
        for bytes in [MAP, 4 * GROW_WORDS + 6, 4 * GROW_WORDS + 1, 13, 4] {
            let mut m = Mem::new(bytes);
            let size = m.size();
            assert_eq!(size, bytes.next_multiple_of(4), "{bytes}");
            let last = (size - 4) as u32;
            assert_eq!(m.load(last), Some(0), "{bytes}");
            assert_eq!(m.load(size as u32), None, "{bytes}");
            assert!(!m.store(size as u32, 1), "{bytes}");
            assert!(!m.store(size as u32 + 3, 1), "{bytes}");
            assert!(m.store(last + 3, 9), "{bytes}");
            assert_eq!(m.load(last), Some(9), "{bytes}");
            assert_eq!(m.load(size as u32), None, "{bytes}");
            assert!(!m.store(size as u32, 1), "{bytes}");
            assert_eq!(m.size(), size, "{bytes}");
        }
    }

    #[test]
    fn first_difference_reads_past_either_prefix_as_zero() {
        let (mut a, mut b) = (Mem::new(MAP), Mem::new(MAP));
        assert_eq!(a.first_difference(&b), None);
        // `b` materialised further, with zeroes only: still equal.
        assert!(b.store(200_000, 0));
        assert!(b.words().len() > a.words().len());
        assert_eq!(a.first_difference(&b), None);
        assert_eq!(b.first_difference(&a), None);
        // A difference past `a`'s prefix is found from either side.
        assert!(b.store(150_000, 5));
        assert_eq!(a.first_difference(&b), Some(150_000));
        assert_eq!(b.first_difference(&a), Some(150_000));
        // The lowest difference wins.
        assert!(a.store(8, 1));
        assert_eq!(b.first_difference(&a), Some(8));
    }
}
