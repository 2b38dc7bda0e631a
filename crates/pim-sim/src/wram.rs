//! Per-DPU WRAM: the 64 KB single-cycle scratchpad.
//!
//! The DPU has no MMU, so WRAM is managed as raw physical space. UpANNS's
//! Opt2 plans an explicit *reuse* schedule (Figure 6: the codebook region is
//! overwritten by combination sums and then by encoded-point buffers). This
//! allocator models that: named regions can be allocated, freed and reused,
//! capacity is enforced, and the peak footprint is recorded so kernels (and
//! tests) can verify their layout actually fits in 64 KB.

/// Errors raised by WRAM allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WramError {
    /// The requested allocation does not fit in the remaining WRAM.
    OutOfMemory {
        /// Name of the region that failed to allocate.
        region: String,
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free.
        available: usize,
    },
    /// A region with this name is already allocated.
    DuplicateRegion(String),
    /// Attempted to free a region that does not exist.
    UnknownRegion(String),
}

impl std::fmt::Display for WramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WramError::OutOfMemory {
                region,
                requested,
                available,
            } => write!(
                f,
                "WRAM out of memory allocating '{region}': requested {requested} B, {available} B free"
            ),
            WramError::DuplicateRegion(r) => write!(f, "WRAM region '{r}' already allocated"),
            WramError::UnknownRegion(r) => write!(f, "WRAM region '{r}' not found"),
        }
    }
}

impl std::error::Error for WramError {}

/// A capacity-enforcing, named-region WRAM allocator.
///
/// Region names are `&'static str`: a kernel's layout is a fixed set of
/// regions known at compile time, and an owned name per `alloc` was a heap
/// allocation per tasklet per assignment on the kernel's hot path. The live
/// regions — at most two per tasklet plus a handful — are an unordered list
/// searched linearly, for the same reason: no tree node per `alloc`/`free`.
#[derive(Debug, Clone)]
pub struct WramAllocator {
    capacity: usize,
    regions: Vec<(&'static str, usize)>,
    in_use: usize,
    peak: usize,
}

impl WramAllocator {
    /// Creates an allocator for a WRAM of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            regions: Vec::new(),
            in_use: 0,
            peak: 0,
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Bytes currently free.
    #[inline]
    pub fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Highest simultaneous allocation observed since creation (or the last
    /// [`reset`](Self::reset)).
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Allocates a named region of `bytes`.
    pub fn alloc(&mut self, region: &'static str, bytes: usize) -> Result<(), WramError> {
        if self.region_size(region).is_some() {
            return Err(WramError::DuplicateRegion(region.to_string()));
        }
        if bytes > self.available() {
            return Err(WramError::OutOfMemory {
                region: region.to_string(),
                requested: bytes,
                available: self.available(),
            });
        }
        self.regions.push((region, bytes));
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Frees a named region, making its space reusable (the essence of the
    /// Opt2 reuse strategy).
    pub fn free(&mut self, region: &str) -> Result<usize, WramError> {
        match self.regions.iter().position(|&(name, _)| name == region) {
            Some(at) => {
                let (_, bytes) = self.regions.swap_remove(at);
                self.in_use -= bytes;
                Ok(bytes)
            }
            None => Err(WramError::UnknownRegion(region.to_string())),
        }
    }

    /// Size of a named region, if allocated.
    pub fn region_size(&self, region: &str) -> Option<usize> {
        self.regions
            .iter()
            .find(|&&(name, _)| name == region)
            .map(|&(_, bytes)| bytes)
    }

    /// Names of all live regions (sorted).
    pub fn regions(&self) -> Vec<(&'static str, usize)> {
        let mut regions = self.regions.clone();
        regions.sort_unstable();
        regions
    }

    /// Frees everything and clears the peak statistic.
    pub fn reset(&mut self) {
        self.regions.clear();
        self.in_use = 0;
        self.peak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_reuse_cycle() {
        // Mirrors the Figure 6 reuse schedule at the paper's sizes:
        // codebook 32 KB + LUT 8 KB, then codebook freed and replaced by
        // combination sums 8 KB + encoded-point buffers 32 KB.
        let mut w = WramAllocator::new(64 * 1024);
        w.alloc("codebook", 32 * 1024).unwrap();
        w.alloc("lut", 8 * 1024).unwrap();
        assert_eq!(w.in_use(), 40 * 1024);
        w.alloc("comb_sums", 8 * 1024).unwrap();
        assert_eq!(w.in_use(), 48 * 1024);
        // The 32 KB of encoded-point read buffers only fit after the codebook
        // is released.
        assert!(w.alloc("encoded_points", 32 * 1024).is_err());
        w.free("codebook").unwrap();
        w.alloc("encoded_points", 32 * 1024).unwrap();
        assert_eq!(w.in_use(), 48 * 1024);
        assert_eq!(w.peak(), 48 * 1024);
        assert!(w.capacity() >= w.peak());
    }

    #[test]
    fn duplicate_and_unknown_regions_are_errors() {
        let mut w = WramAllocator::new(1024);
        w.alloc("a", 100).unwrap();
        assert!(matches!(w.alloc("a", 10), Err(WramError::DuplicateRegion(_))));
        assert!(matches!(w.free("b"), Err(WramError::UnknownRegion(_))));
        assert_eq!(w.region_size("a"), Some(100));
        assert_eq!(w.region_size("zzz"), None);
    }

    #[test]
    fn capacity_enforced_and_reported() {
        let mut w = WramAllocator::new(256);
        assert_eq!(w.available(), 256);
        let err = w.alloc("big", 300).unwrap_err();
        assert!(err.to_string().contains("out of memory"));
        w.alloc("half", 128).unwrap();
        assert_eq!(w.available(), 128);
        assert_eq!(w.regions().len(), 1);
        w.reset();
        assert_eq!(w.in_use(), 0);
        assert_eq!(w.peak(), 0);
    }
}
