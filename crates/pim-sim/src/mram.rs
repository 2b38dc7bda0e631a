//! Per-DPU MRAM: bulk storage reachable only through DMA.
//!
//! MRAM is modeled as a growable byte buffer with a bump allocator and a hard
//! capacity limit (64 MB per DPU on real hardware). Only the bytes actually
//! written are backed by host memory, so simulating 896 DPUs does not
//! allocate 56 GB.

/// A byte offset within a DPU's MRAM.
pub type MramAddr = usize;

/// Errors raised by MRAM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MramError {
    /// An allocation would exceed the DPU's MRAM capacity.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// A read or write touches addresses beyond the allocated region.
    OutOfBounds {
        /// First byte of the offending access.
        addr: MramAddr,
        /// Length of the offending access.
        len: usize,
        /// Current allocated size.
        allocated: usize,
    },
}

impl std::fmt::Display for MramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MramError::OutOfMemory { requested, available } => write!(
                f,
                "MRAM out of memory: requested {requested} bytes, {available} available"
            ),
            MramError::OutOfBounds { addr, len, allocated } => write!(
                f,
                "MRAM access out of bounds: [{addr}, {}) with {allocated} bytes allocated",
                addr + len
            ),
        }
    }
}

impl std::error::Error for MramError {}

/// The MRAM of one DPU.
#[derive(Debug, Clone)]
pub struct Mram {
    capacity: usize,
    data: Vec<u8>,
}

impl Mram {
    /// Creates an empty MRAM with the given capacity in bytes.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            data: Vec::new(),
        }
    }

    /// Bytes currently allocated (high-water mark of the bump allocator).
    #[inline]
    pub(crate) fn allocated(&self) -> usize {
        self.data.len()
    }

    /// Remaining allocatable bytes.
    #[inline]
    pub(crate) fn available(&self) -> usize {
        self.capacity - self.data.len()
    }

    /// Allocates `len` bytes (8-byte aligned, zero-initialized) and returns
    /// the base address.
    pub(crate) fn alloc(&mut self, len: usize) -> Result<MramAddr, MramError> {
        let aligned = len.div_ceil(8) * 8;
        if aligned > self.available() {
            return Err(MramError::OutOfMemory {
                requested: aligned,
                available: self.available(),
            });
        }
        let addr = self.data.len();
        self.data.resize(addr + aligned, 0);
        Ok(addr)
    }

    /// Writes `bytes` at `addr`.
    pub fn write(&mut self, addr: MramAddr, bytes: &[u8]) -> Result<(), MramError> {
        let end = addr + bytes.len();
        if end > self.data.len() {
            return Err(MramError::OutOfBounds {
                addr,
                len: bytes.len(),
                allocated: self.data.len(),
            });
        }
        self.data[addr..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&self, addr: MramAddr, len: usize) -> Result<&[u8], MramError> {
        let end = addr + len;
        if end > self.data.len() {
            return Err(MramError::OutOfBounds {
                addr,
                len,
                allocated: self.data.len(),
            });
        }
        Ok(&self.data[addr..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
