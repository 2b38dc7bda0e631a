//! Configuration of the UpANNS engine.

use pim_sim::config::{DMA_MAX_BYTES, MAX_TASKLETS};

/// Which optimizations of the paper are enabled. `PIM-naive` is the same
/// engine with Opt1/Opt3/Opt4 disabled (it keeps Opt2, the PIM resource
/// management, exactly as defined in §5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct UpAnnsConfig {
    /// Number of tasklets (hardware threads) used per DPU. The paper finds 11
    /// saturates the pipeline (§5.3.2), which is the default.
    pub tasklets: usize,
    /// Number of encoded vectors fetched per MRAM read during the distance
    /// calculation stage (§5.4.2). The default, 16, is the paper's value;
    /// the model's Fig. 17 saturates by 8.
    pub mram_read_vectors: usize,
    /// Opt1: PIM-aware data placement + query scheduling. When disabled,
    /// clusters are assigned to DPUs round-robin without replication (the
    /// naive distribution of §5.3.1).
    pub pim_aware_placement: bool,
    /// Opt3: co-occurrence aware encoding.
    pub cooccurrence_encoding: bool,
    /// Opt4: top-k pruning during the per-DPU merge.
    pub topk_pruning: bool,
    /// Work-scale factor: the timing model treats every stored vector as
    /// representing this many vectors of the modeled billion-scale dataset.
    /// Functional results are unaffected. 1.0 disables projection.
    pub work_scale: f64,
}

impl Default for UpAnnsConfig {
    fn default() -> Self {
        Self {
            tasklets: 11,
            mram_read_vectors: 16,
            pim_aware_placement: true,
            cooccurrence_encoding: true,
            topk_pruning: true,
            work_scale: 1.0,
        }
    }
}

impl UpAnnsConfig {
    /// The full UpANNS configuration (all four optimizations on).
    pub fn upanns() -> Self {
        Self::default()
    }

    /// The PIM-naive baseline of §5.1: IVFPQ on PIM with only the resource
    /// management (Opt2) enabled.
    pub fn pim_naive() -> Self {
        Self {
            pim_aware_placement: false,
            cooccurrence_encoding: false,
            topk_pruning: false,
            ..Self::default()
        }
    }

    /// Overrides the tasklet count.
    ///
    /// # Panics
    /// Panics if outside `1..=24`.
    pub fn with_tasklets(mut self, tasklets: usize) -> Self {
        assert!(
            (1..=MAX_TASKLETS).contains(&tasklets),
            "tasklets must be in 1..=24"
        );
        self.tasklets = tasklets;
        self
    }

    /// Overrides the number of vectors per MRAM read.
    ///
    /// # Panics
    /// Panics if zero.
    pub fn with_mram_read_vectors(mut self, vectors: usize) -> Self {
        assert!(vectors > 0, "must read at least one vector per MRAM access");
        self.mram_read_vectors = vectors;
        self
    }

    /// Overrides the work-scale projection factor.
    pub fn with_work_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0 && scale.is_finite(), "work scale must be >= 1");
        self.work_scale = scale;
        self
    }

    /// Enables/disables the PIM-aware placement (Opt1).
    pub fn with_placement(mut self, enabled: bool) -> Self {
        self.pim_aware_placement = enabled;
        self
    }

    /// Enables/disables co-occurrence aware encoding (Opt3).
    pub fn with_cooccurrence(mut self, enabled: bool) -> Self {
        self.cooccurrence_encoding = enabled;
        self
    }

    /// Enables/disables top-k pruning (Opt4).
    pub fn with_topk_pruning(mut self, enabled: bool) -> Self {
        self.topk_pruning = enabled;
        self
    }

    /// The MRAM read buffer in bytes, which the distance calculation reads
    /// and is charged per transfer: `mram_read_vectors` codes of `code_bytes`
    /// each, clamped to the 8 B–2 KB DMA range but never below one record.
    pub fn mram_read_bytes(&self, code_bytes: usize) -> usize {
        (self.mram_read_vectors * code_bytes)
            .clamp(8, DMA_MAX_BYTES)
            .max(code_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_optimizations() {
        let up = UpAnnsConfig::upanns();
        let naive = UpAnnsConfig::pim_naive();
        assert!(up.pim_aware_placement && up.cooccurrence_encoding && up.topk_pruning);
        assert!(!naive.pim_aware_placement && !naive.cooccurrence_encoding && !naive.topk_pruning);
        assert_eq!(up.tasklets, naive.tasklets);
        assert_eq!(up.mram_read_vectors, naive.mram_read_vectors);
    }

    #[test]
    fn builder_style_overrides() {
        let c = UpAnnsConfig::upanns()
            .with_tasklets(16)
            .with_mram_read_vectors(32)
            .with_work_scale(100.0)
            .with_placement(false)
            .with_cooccurrence(false)
            .with_topk_pruning(false);
        assert_eq!(c.tasklets, 16);
        assert_eq!(c.mram_read_vectors, 32);
        assert_eq!(c.work_scale, 100.0);
        assert!(!c.pim_aware_placement);
    }

    #[test]
    fn mram_read_bytes_respects_hardware_limits() {
        let c = UpAnnsConfig::upanns().with_mram_read_vectors(2);
        assert_eq!(c.mram_read_bytes(16), 32);
        let big = UpAnnsConfig::upanns().with_mram_read_vectors(1000);
        assert_eq!(big.mram_read_bytes(16), 2048);
        let tiny = UpAnnsConfig::upanns().with_mram_read_vectors(1);
        assert_eq!(tiny.mram_read_bytes(4), 8);
    }

    #[test]
    fn read_buffer_never_smaller_than_one_record() {
        // For m > the 2 KB DMA ceiling the clamp alone gives a buffer smaller
        // than one code, and the scan would read more than it is charged
        // for. The buffer holds a whole record so the functional read, the
        // WRAM allocation and the DMA charge all agree.
        let config = UpAnnsConfig::pim_naive();
        for m in [8usize, 16, 100, 2048, 3000, 4096] {
            let rb = config.mram_read_bytes(m);
            assert!(rb >= m, "read buffer {rb} smaller than one {m}-byte code");
            // For record sizes within the DMA ceiling, the floor is a no-op.
            if m <= 2048 {
                assert_eq!(rb, (config.mram_read_vectors * m).clamp(8, DMA_MAX_BYTES));
            }
        }
        // A zero read count set through the pub field still reads a record.
        let zero = UpAnnsConfig {
            mram_read_vectors: 0,
            ..config
        };
        assert_eq!(zero.mram_read_bytes(16), 16);
    }

    #[test]
    #[should_panic(expected = "1..=24")]
    fn invalid_tasklets_rejected() {
        let _ = UpAnnsConfig::upanns().with_tasklets(0);
    }
}
