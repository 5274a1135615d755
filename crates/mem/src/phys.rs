//! Sparse simulated physical memory.

use swgpu_types::{FastMap, PhysAddr};

/// Granule at which backing storage is allocated: 4 KiB, the natural size of
/// one radix page-table node (512 entries x 8 bytes).
const GRANULE_BYTES: u64 = 4096;
const WORDS_PER_GRANULE: usize = (GRANULE_BYTES / 8) as usize;

/// A sparse, 64-bit-word addressed physical memory.
///
/// Only page-table pages (and the fault buffer) ever hold real contents in
/// this simulator — data pages exist purely for timing, so reading an
/// unbacked address returns zero rather than allocating.
///
/// # Example
///
/// ```
/// use swgpu_mem::PhysMem;
/// use swgpu_types::PhysAddr;
///
/// let mut mem = PhysMem::new();
/// mem.write_u64(PhysAddr::new(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x1000)), 0xdead_beef);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x9_0000)), 0);
/// ```
/// Cloning deep-copies every backed granule — the experiment runner's
/// page-table prebuild store clones one built memory image per cell
/// instead of replaying the whole mapping sequence.
#[derive(Debug, Default, Clone)]
pub struct PhysMem {
    granules: FastMap<u64, Box<[u64; WORDS_PER_GRANULE]>>,
}

impl PhysMem {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads an aligned 64-bit word. Unbacked addresses read as zero (which
    /// decodes as an invalid [`swgpu_types::Pte`] — exactly the behaviour a
    /// walker should see for an unmapped region).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let (granule, word) = Self::split(addr);
        self.granules.get(&granule).map_or(0, |g| g[word])
    }

    /// Writes an aligned 64-bit word, allocating backing storage on demand.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        let (granule, word) = Self::split(addr);
        let g = self
            .granules
            .entry(granule)
            .or_insert_with(|| Box::new([0u64; WORDS_PER_GRANULE]));
        g[word] = value;
    }

    /// Flips the given bits of an aligned 64-bit word in place — the fault
    /// injector's primitive for corrupting a stored payload without knowing
    /// (or preserving) what was there.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn xor_u64(&mut self, addr: PhysAddr, mask: u64) {
        let current = self.read_u64(addr);
        self.write_u64(addr, current ^ mask);
    }

    /// Number of 4 KiB granules currently backed (a proxy for the simulated
    /// page-table footprint).
    pub fn backed_granules(&self) -> usize {
        self.granules.len()
    }

    fn split(addr: PhysAddr) -> (u64, usize) {
        let a = addr.value();
        assert_eq!(a % 8, 0, "physical word access must be 8-byte aligned");
        (a / GRANULE_BYTES, ((a % GRANULE_BYTES) / 8) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbacked_reads_zero() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_u64(PhysAddr::new(0x12345678 & !7)), 0);
        assert_eq!(mem.backed_granules(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x2000), 42);
        mem.write_u64(PhysAddr::new(0x2008), 43);
        assert_eq!(mem.read_u64(PhysAddr::new(0x2000)), 42);
        assert_eq!(mem.read_u64(PhysAddr::new(0x2008)), 43);
        assert_eq!(mem.backed_granules(), 1);
    }

    #[test]
    fn distinct_granules_are_independent() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0), 1);
        mem.write_u64(PhysAddr::new(GRANULE_BYTES), 2);
        assert_eq!(mem.backed_granules(), 2);
        assert_eq!(mem.read_u64(PhysAddr::new(0)), 1);
        assert_eq!(mem.read_u64(PhysAddr::new(GRANULE_BYTES)), 2);
    }

    #[test]
    fn xor_flips_bits_in_place() {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(0x3000), 0b1010);
        mem.xor_u64(PhysAddr::new(0x3000), 0b0110);
        assert_eq!(mem.read_u64(PhysAddr::new(0x3000)), 0b1100);
        // Unbacked word: xor against the implicit zero allocates backing.
        mem.xor_u64(PhysAddr::new(0x9000), 0xff);
        assert_eq!(mem.read_u64(PhysAddr::new(0x9000)), 0xff);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn rejects_unaligned_access() {
        PhysMem::new().read_u64(PhysAddr::new(3));
    }
}
