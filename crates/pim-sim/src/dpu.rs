//! A single DPU: its MRAM and accumulated execution statistics.

use crate::mram::Mram;

/// Counters accumulated by a DPU across kernel launches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpuStats {
    /// Total cycles charged to this DPU (compute + DMA + synchronization).
    pub cycles: u64,
    /// Instruction cycles charged by tasklets (compute only).
    pub compute_cycles: u64,
    /// Cycles spent in MRAM↔WRAM DMA transfers.
    pub dma_cycles: u64,
    /// Number of MRAM↔WRAM DMA transfers issued.
    pub dma_transfers: u64,
    /// Bytes read from MRAM into WRAM.
    pub mram_bytes_read: u64,
    /// Bytes written from WRAM back to MRAM.
    pub mram_bytes_written: u64,
    /// Number of kernel launches on this DPU's system, counting those in
    /// which it was idle: the host does not visit an idle DPU, but on the
    /// hardware it is launched all the same.
    pub launches: u64,
    /// Peak WRAM footprint observed across launches.
    pub wram_peak_bytes: usize,
}

impl DpuStats {
    /// Merges what one kernel launch charged into the running totals. The
    /// host counts `launches` itself, for busy and idle DPUs alike.
    pub(crate) fn absorb(&mut self, other: &DpuStats) {
        self.cycles += other.cycles;
        self.compute_cycles += other.compute_cycles;
        self.dma_cycles += other.dma_cycles;
        self.dma_transfers += other.dma_transfers;
        self.mram_bytes_read += other.mram_bytes_read;
        self.mram_bytes_written += other.mram_bytes_written;
        self.wram_peak_bytes = self.wram_peak_bytes.max(other.wram_peak_bytes);
    }
}

/// One simulated DPU.
#[derive(Debug, Clone)]
pub struct Dpu {
    id: usize,
    mram: Mram,
    stats: DpuStats,
}

impl Dpu {
    /// Creates DPU `id` with `mram_capacity` bytes of MRAM.
    pub(crate) fn new(id: usize, mram_capacity: usize) -> Self {
        Self {
            id,
            mram: Mram::new(mram_capacity),
            stats: DpuStats::default(),
        }
    }

    /// The DPU's index within the system.
    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Immutable access to this DPU's MRAM.
    #[inline]
    pub fn mram(&self) -> &Mram {
        &self.mram
    }

    /// Mutable access to this DPU's MRAM (host-side loads, kernel writes).
    #[inline]
    pub fn mram_mut(&mut self) -> &mut Mram {
        &mut self.mram
    }

    /// Lifetime statistics of this DPU.
    #[inline]
    pub fn stats(&self) -> &DpuStats {
        &self.stats
    }

    /// Mutable statistics (used by the host when absorbing launch reports).
    #[inline]
    pub(crate) fn stats_mut(&mut self) -> &mut DpuStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_accumulates() {
        let mut total = DpuStats::default();
        let launch = DpuStats {
            cycles: 100,
            compute_cycles: 60,
            dma_cycles: 40,
            dma_transfers: 4,
            mram_bytes_read: 512,
            mram_bytes_written: 64,
            launches: 1,
            wram_peak_bytes: 1000,
        };
        total.absorb(&launch);
        total.absorb(&launch);
        assert_eq!(total.cycles, 200);
        assert_eq!(total.dma_transfers, 8);
        assert_eq!(total.launches, 0, "the host counts launches");
        assert_eq!(total.wram_peak_bytes, 1000);
        assert_eq!((total.mram_bytes_read, total.dma_cycles), (1024, 80));
    }

    #[test]
    fn fresh_dpu_is_empty() {
        let dpu = Dpu::new(3, 4096);
        assert_eq!(dpu.id(), 3);
        assert_eq!(dpu.mram().allocated(), 0);
        assert_eq!(dpu.stats().cycles, 0);
    }
}
