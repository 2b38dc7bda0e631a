//! Per-DPU MRAM: bulk storage reachable only through DMA.
//!
//! MRAM is modeled as a first-fit allocator with a hard capacity limit (64
//! MB per DPU on real hardware) over a sorted list of regions, one per live
//! allocation. An allocation takes the lowest gap a freed region left that
//! holds it, else the space past the last region, so until something is
//! freed every region lies where a bump allocator would put it.
//! A region is either bytes this DPU owns
//! ([`PimSystem::mram_alloc`](crate::host::PimSystem::mram_alloc): zeroed,
//! then written by the host or the kernel) or a read-only payload shared
//! with other DPUs
//! ([`PimSystem::mram_map_shared`](crate::host::PimSystem::mram_map_shared):
//! one host copy of, say, the PQ codebook every DPU holds, or of a list every
//! replica of a cluster holds). Either way the DPU is charged the region's
//! full length until it is freed
//! ([`PimSystem::mram_free`](crate::host::PimSystem::mram_free)), so capacity
//! and
//! [`PimSystem::total_mram_allocated`](crate::host::PimSystem::total_mram_allocated)
//! are modeled MRAM, not host memory. A write into a shared region first
//! copies it for the writing DPU alone. A read or write must lie inside one
//! live region.

use std::sync::Arc;

/// A byte offset within a DPU's MRAM.
pub type MramAddr = usize;

/// Errors raised by MRAM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MramError {
    /// No gap in the DPU's MRAM holds an allocation.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes in the largest free gap, the end of MRAM included.
        largest_gap: usize,
    },
    /// A read or write does not lie inside one live region.
    OutOfBounds {
        /// First byte of the offending access.
        addr: MramAddr,
        /// Length of the offending access.
        len: usize,
        /// Bytes the live regions take.
        allocated: usize,
    },
    /// A free names an address at which no region starts.
    NotARegion {
        /// The address freed.
        addr: MramAddr,
    },
}

impl std::fmt::Display for MramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MramError::OutOfMemory {
                requested,
                largest_gap,
            } => write!(
                f,
                "MRAM out of memory: requested {requested} bytes, the largest free gap holds {largest_gap}"
            ),
            MramError::OutOfBounds {
                addr,
                len,
                allocated,
            } => write!(
                f,
                "MRAM access out of bounds: [{addr}, {}) with {allocated} bytes allocated",
                addr + len
            ),
            MramError::NotARegion { addr } => write!(f, "MRAM free: no region starts at {addr}"),
        }
    }
}

impl std::error::Error for MramError {}

/// The bytes behind one allocation.
#[derive(Debug, Clone)]
enum Region {
    /// Bytes only this DPU holds.
    Owned(Box<[u8]>),
    /// A read-only payload other DPUs may map too.
    Shared(Arc<[u8]>),
}

impl Region {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Region::Owned(bytes) => bytes,
            Region::Shared(bytes) => bytes,
        }
    }

    /// The bytes the region takes: its length rounded up to 8.
    #[inline]
    fn span(&self) -> usize {
        self.bytes().len().div_ceil(8) * 8
    }

    /// This DPU's own bytes, copying a shared payload first.
    fn owned_mut(&mut self) -> &mut [u8] {
        if let Region::Shared(shared) = self {
            *self = Region::Owned(Box::from(&shared[..]));
        }
        match self {
            Region::Owned(bytes) => bytes,
            Region::Shared(_) => unreachable!("a shared region was copied above"),
        }
    }
}

/// The MRAM of one DPU.
#[derive(Debug, Clone)]
pub struct Mram {
    capacity: usize,
    /// Bytes the live regions take, each rounded up to 8.
    allocated: usize,
    /// Base address of each region, ascending: `regions[i]` starts at
    /// `bases[i]`.
    bases: Vec<MramAddr>,
    regions: Vec<Region>,
}

impl Mram {
    /// Creates an empty MRAM with the given capacity in bytes.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            allocated: 0,
            bases: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// Bytes the live regions take (each rounded up to 8), shared regions
    /// included at their full length.
    #[inline]
    pub(crate) fn allocated(&self) -> usize {
        self.allocated
    }

    /// Where a region of `len` bytes goes, first fit: the lowest gap a freed
    /// region left that holds it, else past the last region. Returns its
    /// index among the regions and its base address.
    fn place(&self, len: usize) -> Result<(usize, MramAddr), MramError> {
        let mut end = 0;
        let mut largest_gap = 0;
        for (i, (&base, region)) in self.bases.iter().zip(&self.regions).enumerate() {
            // An empty gap holds nothing, not even an empty region.
            if base - end >= len.max(1) {
                return Ok((i, end));
            }
            largest_gap = largest_gap.max(base - end);
            end = base + region.span();
        }
        if self.capacity - end < len {
            return Err(MramError::OutOfMemory {
                requested: len,
                largest_gap: largest_gap.max(self.capacity - end),
            });
        }
        Ok((self.regions.len(), end))
    }

    /// Puts `region` where [`place`](Self::place) found room for it.
    fn insert(&mut self, (i, addr): (usize, MramAddr), region: Region) -> MramAddr {
        self.allocated += region.span();
        self.bases.insert(i, addr);
        self.regions.insert(i, region);
        addr
    }

    /// Allocates `len` bytes (8-byte aligned, zero-initialized) and returns
    /// the base address.
    pub(crate) fn alloc(&mut self, len: usize) -> Result<MramAddr, MramError> {
        let aligned = len.div_ceil(8) * 8;
        let slot = self.place(aligned)?;
        Ok(self.insert(slot, Region::Owned(vec![0; aligned].into_boxed_slice())))
    }

    /// Maps `bytes` as a new allocation without copying them: every DPU that
    /// maps the same payload reads one host copy, and each is charged its
    /// full length (rounded up to 8, like [`alloc`](Self::alloc); the
    /// padding is not readable). Returns the base address.
    pub(crate) fn map_shared(&mut self, bytes: Arc<[u8]>) -> Result<MramAddr, MramError> {
        let slot = self.place(bytes.len().div_ceil(8) * 8)?;
        Ok(self.insert(slot, Region::Shared(bytes)))
    }

    /// Frees the region that starts at `addr`: its bytes are free again, and
    /// a read or write into them is out of bounds until an allocation takes
    /// them again.
    pub(crate) fn free(&mut self, addr: MramAddr) -> Result<(), MramError> {
        let i = self.bases.partition_point(|&base| base <= addr);
        match i.checked_sub(1) {
            Some(i) if self.bases[i] == addr => {
                self.bases.remove(i);
                self.allocated -= self.regions.remove(i).span();
                Ok(())
            }
            _ => Err(MramError::NotARegion { addr }),
        }
    }

    /// The index of the region that holds all of `[addr, addr + len)`.
    #[inline]
    fn locate(&self, addr: MramAddr, len: usize) -> Result<usize, MramError> {
        let i = self.bases.partition_point(|&base| base <= addr);
        if let Some(i) = i.checked_sub(1) {
            let offset = addr - self.bases[i];
            if offset
                .checked_add(len)
                .is_some_and(|end| end <= self.regions[i].bytes().len())
            {
                return Ok(i);
            }
        }
        Err(MramError::OutOfBounds {
            addr,
            len,
            allocated: self.allocated,
        })
    }

    /// [`read`](Self::read) for a reader that makes many reads inside one
    /// allocation: it looks in region `*window` first, the one the reader's
    /// last read fell in, and searches the regions only when the read lies
    /// outside it, leaving `*window` at the region it found.
    #[inline]
    pub(crate) fn read_near(
        &self,
        window: &mut usize,
        addr: MramAddr,
        len: usize,
    ) -> Result<&[u8], MramError> {
        let inside = |i: usize| {
            let offset = addr.checked_sub(*self.bases.get(i)?)?;
            self.regions[i]
                .bytes()
                .get(offset..offset.checked_add(len)?)
        };
        if let Some(bytes) = inside(*window) {
            return Ok(bytes);
        }
        *window = self.locate(addr, len)?;
        Ok(&self.regions[*window].bytes()[addr - self.bases[*window]..][..len])
    }

    /// Writes `bytes` at `addr`, inside one allocation. A shared region is
    /// first copied, so only this DPU sees the write.
    pub fn write(&mut self, addr: MramAddr, bytes: &[u8]) -> Result<(), MramError> {
        let i = self.locate(addr, bytes.len())?;
        let offset = addr - self.bases[i];
        self.regions[i].owned_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`, inside one allocation.
    pub fn read(&self, addr: MramAddr, len: usize) -> Result<&[u8], MramError> {
        let i = self.locate(addr, len)?;
        Ok(&self.regions[i].bytes()[addr - self.bases[i]..][..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Mram {
        /// Bytes no live region takes.
        fn available(&self) -> usize {
            self.capacity - self.allocated
        }
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut m = Mram::new(1024);
        let mut filled = |bytes: &[u8]| {
            let addr = m.alloc(bytes.len()).unwrap();
            m.write(addr, bytes).unwrap();
            addr
        };
        let a = filled(&[1, 2, 3, 4, 5]);
        let b = filled(&[9, 9]);
        assert_ne!(a, b);
        assert_eq!(m.read(a, 5).unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(m.read(b, 2).unwrap(), &[9, 9]);
        // Allocations are 8-byte aligned.
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m = Mram::new(64);
        assert!(m.alloc(32).is_ok());
        let err = m.alloc(64).unwrap_err();
        assert!(matches!(err, MramError::OutOfMemory { .. }));
        assert!(err.to_string().contains("out of memory"));
        assert_eq!(m.available(), 32);
        assert_eq!(m.allocated(), 32);
    }

    #[test]
    fn out_of_bounds_reads_and_writes_fail() {
        let mut m = Mram::new(128);
        let a = m.alloc(16).unwrap();
        assert!(m.read(a, 32).is_err());
        assert!(m.write(a + 8, &[0u8; 16]).is_err());
        let err = m.read(100, 8).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn a_shared_region_reads_back_the_staged_bytes() {
        let payload: Arc<[u8]> = Arc::from(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10][..]);
        let mut m = Mram::new(1024);
        let owned = m.alloc(3).unwrap();
        let shared = m.map_shared(Arc::clone(&payload)).unwrap();
        assert_eq!(shared, 8, "a shared region is placed like an allocation");
        assert_eq!(m.read(shared, 10).unwrap(), &payload[..]);
        assert_eq!(m.read(shared + 4, 3).unwrap(), &[5, 6, 7]);
        assert!(std::ptr::eq(
            m.read(shared, 10).unwrap().as_ptr(),
            payload.as_ptr()
        ));
        assert_eq!(m.read(owned, 8).unwrap(), &[0; 8]);
    }

    #[test]
    fn a_write_into_a_shared_region_changes_only_the_writers_view() {
        let payload: Arc<[u8]> = Arc::from(&[7u8; 16][..]);
        let mut writer = Mram::new(1024);
        let mut other = Mram::new(1024);
        let a = writer.map_shared(Arc::clone(&payload)).unwrap();
        let b = other.map_shared(Arc::clone(&payload)).unwrap();
        writer.write(a + 4, &[1, 2]).unwrap();
        assert_eq!(writer.read(a, 8).unwrap(), &[7, 7, 7, 7, 1, 2, 7, 7]);
        assert_eq!(other.read(b, 16).unwrap(), &[7; 16]);
        assert!(std::ptr::eq(
            other.read(b, 16).unwrap().as_ptr(),
            payload.as_ptr()
        ));
        assert!(!std::ptr::eq(
            writer.read(a, 16).unwrap().as_ptr(),
            payload.as_ptr()
        ));
        assert_eq!(&payload[..], &[7; 16]);
        assert_eq!(writer.allocated(), other.allocated());
    }

    #[test]
    fn an_access_across_a_region_boundary_is_out_of_bounds() {
        let mut m = Mram::new(1024);
        let a = m.alloc(16).unwrap();
        let b = m.map_shared(Arc::from(&[3u8; 16][..])).unwrap();
        let c = m.alloc(16).unwrap();
        assert_eq!((a, b, c), (0, 16, 32));
        let crossing = [(a + 8, 16), (b + 8, 16), (b - 1, 2), (c + 8, 16)];
        for (addr, len) in crossing {
            assert!(
                matches!(m.read(addr, len), Err(MramError::OutOfBounds { .. })),
                "read [{addr}, +{len})"
            );
            assert!(
                matches!(
                    m.write(addr, &vec![0; len]),
                    Err(MramError::OutOfBounds { .. })
                ),
                "write [{addr}, +{len})"
            );
        }
        // Each region on its own is still whole.
        assert_eq!(m.read(b, 16).unwrap(), &[3; 16]);
        assert!(m.write(c, &[1; 16]).is_ok());
    }

    #[test]
    fn a_shared_region_counts_in_full_toward_capacity() {
        let payload: Arc<[u8]> = Arc::from(&[0u8; 20][..]);
        let mut m = Mram::new(64);
        m.map_shared(Arc::clone(&payload)).unwrap();
        assert_eq!(m.allocated(), 24, "rounded up to 8 like an allocation");
        m.map_shared(Arc::clone(&payload)).unwrap();
        assert_eq!(m.allocated(), 48);
        assert_eq!(m.available(), 16);
        let err = m.map_shared(Arc::clone(&payload)).unwrap_err();
        assert_eq!(
            err,
            MramError::OutOfMemory {
                requested: 24,
                largest_gap: 16
            }
        );
        // The failed mapping left nothing behind.
        assert_eq!(m.allocated(), 48);
        assert!(m.alloc(16).is_ok());
    }

    #[test]
    fn freed_bytes_return_to_available_and_are_out_of_bounds() {
        let mut m = Mram::new(128);
        let a = m.alloc(20).unwrap();
        let b = m.map_shared(Arc::from(&[5u8; 12][..])).unwrap();
        assert_eq!((m.allocated(), m.available()), (40, 88));
        m.free(a).unwrap();
        assert_eq!((m.allocated(), m.available()), (16, 112));
        m.free(b).unwrap();
        assert_eq!((m.allocated(), m.available()), (0, 128));
        for (addr, len) in [(a, 8), (a + 16, 4), (b, 12)] {
            assert!(
                matches!(m.read(addr, len), Err(MramError::OutOfBounds { .. })),
                "read [{addr}, +{len})"
            );
            assert!(
                matches!(
                    m.write(addr, &vec![0; len]),
                    Err(MramError::OutOfBounds { .. })
                ),
                "write [{addr}, +{len})"
            );
        }
    }

    #[test]
    fn an_allocation_takes_the_first_freed_gap_that_holds_it() {
        let mut m = Mram::new(1024);
        let [a, b, c, d] = [16, 32, 16, 8].map(|len| m.alloc(len).unwrap());
        assert_eq!([a, b, c, d], [0, 16, 48, 64]);
        m.free(a).unwrap();
        m.free(c).unwrap();
        // 24 bytes fit neither 16-byte gap: past the last region.
        assert_eq!(m.alloc(24).unwrap(), 72);
        // 12 bytes (16 aligned) fit the first gap, and 8 the second.
        let e = m.alloc(12).unwrap();
        assert_eq!(e, a);
        assert_eq!(m.map_shared(Arc::from(&[1u8; 8][..])).unwrap(), c);
        // The reused bytes are zeroed again, and the rest of the gap after
        // a region that did not fill it is still free.
        assert_eq!(m.read(e, 16).unwrap(), &[0; 16]);
        assert_eq!(m.alloc(8).unwrap(), c + 8);
        assert_eq!(m.allocated(), 16 + 32 + 8 + 8 + 8 + 24);
        // Regions next to each other stay apart.
        assert!(m.read(e + 8, 16).is_err());
        assert!(m.read(b, 32).is_ok());
    }

    #[test]
    fn freeing_an_address_no_region_starts_at_changes_nothing() {
        let mut m = Mram::new(64);
        let a = m.alloc(16).unwrap();
        m.write(a, &[4; 16]).unwrap();
        for addr in [a + 8, 16, 1000] {
            assert_eq!(m.free(addr), Err(MramError::NotARegion { addr }));
        }
        assert!(m.free(a + 8).unwrap_err().to_string().contains("no region"));
        assert_eq!(m.allocated(), 16);
        assert_eq!(m.read(a, 16).unwrap(), &[4; 16]);
        m.free(a).unwrap();
        assert_eq!(
            m.free(a),
            Err(MramError::NotARegion { addr: a }),
            "freed twice"
        );
        assert_eq!(m.allocated(), 0);
    }

    #[test]
    fn an_allocation_out_of_memory_succeeds_after_a_free() {
        let mut m = Mram::new(64);
        let a = m.alloc(32).unwrap();
        let b = m.alloc(24).unwrap();
        let err = m.alloc(24).unwrap_err();
        assert_eq!(
            err,
            MramError::OutOfMemory {
                requested: 24,
                largest_gap: 8
            }
        );
        m.free(b).unwrap();
        assert_eq!(m.alloc(24), Ok(b));
        // Enough bytes free in all (24), but in no one gap: the error
        // reports the largest, 16.
        m.free(a).unwrap();
        m.alloc(16).unwrap();
        assert!(matches!(
            m.alloc(24),
            Err(MramError::OutOfMemory {
                largest_gap: 16,
                ..
            })
        ));
        assert_eq!(m.alloc(16), Ok(16));
    }
}
