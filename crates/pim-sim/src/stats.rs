//! Stage-labeled time accounting.
//!
//! Every transfer, host step, DPU kernel region, interconnect leg and
//! baseline roofline term is charged to a [`Stage`]. The breakdown of
//! simulated time by stage is what reproduces the paper's Figure 19
//! stage-breakdown plot.
//!
//! **Variant order is label order.** A [`StageBreakdown`] lists, prints and
//! sums its stages in variant order, and the sum *is* the modeled `seconds`
//! of the CPU and GPU baselines. The committed records were produced when a
//! breakdown was a map keyed by label, so they hold the stages — and the
//! floating-point summation order — sorted by label; declaring the variants
//! in that order keeps every one of those bytes. A new stage goes where its
//! label sorts (`tests::labels_ascend` says so).

/// Declares [`Stage`] from one table, so that a stage — variant, label,
/// meaning — is written down once.
macro_rules! stages {
    ($($variant:ident = $label:literal: $doc:literal,)*) => {
        /// Everything the repository charges simulated time to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Stage {
            $(#[doc = $doc] $variant,)*
        }

        impl Stage {
            /// Number of stages.
            pub const COUNT: usize = [$($label,)*].len();

            /// Every stage, in variant (= label) order.
            pub const ALL: [Stage; Stage::COUNT] = [$(Stage::$variant,)*];

            /// The name the stage is printed and recorded under.
            pub const fn label(self) -> &'static str {
                match self {
                    $(Stage::$variant => $label,)*
                }
            }
        }
    };
}

stages! {
    ClusterFiltering = "cluster_filtering": "Coarse-quantizer search on the host (paper stage a).",
    ComboSum = "combo_sum": "Kernel region: partial sums of the mined code combinations (§4.3).",
    CompactionStall = "compaction_stall": "The device stalling behind a compaction window.",
    CoordinatorMerge = "coordinator_merge": "Multi-host coordinator merging the shards' answers (§5.5).",
    DistanceCalc = "distance_calc": "The ADC scan (paper stage c).",
    DpuSearch = "dpu_search": "One kernel launch as a whole, before its regions are spliced in.",
    HostMerge = "host_merge": "Host merge of the per-DPU partial top-k lists.",
    LutConstruction = "lut_construction": "Look-up table construction (paper stage b).",
    Other = "other": "Whatever a label that names no stage is charged to.",
    QueryBroadcast = "query_broadcast": "Multi-host coordinator sending the batch to the hosts (§5.5).",
    QueryScheduling = "query_scheduling": "Algorithm 2 on the host.",
    QueryTransfer = "query_transfer": "Host → DPU copy of the padded query buffers.",
    ResultGather = "result_gather": "Hosts returning their answers to the coordinator (§5.5).",
    ResultTransfer = "result_transfer": "DPU → host copy of the mailboxes.",
    ResultWrite = "result_write": "Kernel region: the mailbox write to MRAM.",
    TopK = "topk": "Top-k selection (paper stage d).",
}

// `StageBreakdown::present` has one bit per stage.
const _: () = assert!(Stage::COUNT <= u16::BITS as usize);

/// The only place a string becomes a stage: a known label is its variant,
/// anything else is [`Stage::Other`]. It exists for `benchmark/`, which
/// passes labels; the workspace passes variants.
impl From<&str> for Stage {
    fn from(label: &str) -> Self {
        Stage::ALL
            .into_iter()
            .find(|s| s.label() == label)
            .unwrap_or(Stage::Other)
    }
}

/// Figure 11's max/avg: the largest value over the mean of the busy
/// (positive) ones, 1.0 when none is busy. A launch's DPU seconds
/// (`ExecReport::max_to_avg_ratio`), a placement's static workload estimate
/// and a batch's schedule all read it.
pub fn max_over_busy_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut max, mut sum, mut busy) = (0.0f64, 0.0f64, 0usize);
    for v in values.filter(|&v| v > 0.0) {
        max = max.max(v);
        sum += v;
        busy += 1;
    }
    // NaN when nothing is busy; 0 only if a subnormal sum underflows.
    let avg = sum / busy as f64;
    if avg > 0.0 {
        max / avg
    } else {
        1.0
    }
}

/// Accumulated simulated seconds per stage.
///
/// A stage is *present* once time has been added to it, even `0.0`; absent
/// stages are not listed, printed or summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    seconds: [f64; Stage::COUNT],
    /// Bit `s as usize` is set when stage `s` is present.
    present: u16,
}

impl StageBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `seconds` to `stage`.
    pub fn add(&mut self, stage: Stage, seconds: f64) {
        self.seconds[stage as usize] += seconds;
        self.present |= 1 << stage as usize;
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (stage, seconds) in other.iter() {
            self.add(stage, seconds);
        }
    }

    /// Puts `inner`, rescaled to sum to `slot`'s seconds, in `slot`'s place:
    /// how a launch's opaque total becomes the kernel regions of its
    /// critical DPU, and a tier's search leg the stages of its slowest shard.
    pub fn splice(&mut self, slot: Stage, inner: &StageBreakdown) {
        let slot_seconds = std::mem::take(&mut self.seconds[slot as usize]);
        self.present &= !(1 << slot as usize);
        let inner_total = inner.total().max(f64::MIN_POSITIVE);
        for (stage, seconds) in inner.iter() {
            self.add(stage, seconds / inner_total * slot_seconds);
        }
    }

    /// The present stages and their seconds, in stage order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Stage, f64)> + '_ {
        Stage::ALL
            .into_iter()
            .filter(|&s| self.present & (1 << s as usize) != 0)
            .map(|s| (s, self.seconds[s as usize]))
    }

    /// Total seconds across all stages.
    pub fn total(&self) -> f64 {
        self.iter().map(|(_, seconds)| seconds).sum()
    }

    /// Seconds attributed to `stage` (0.0 if absent).
    pub fn seconds(&self, stage: impl Into<Stage>) -> f64 {
        self.seconds[stage.into() as usize]
    }

    /// Fraction of the total attributed to `stage` (0.0 for an empty
    /// breakdown).
    pub fn fraction(&self, stage: impl Into<Stage>) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            0.0
        } else {
            self.seconds(stage) / total
        }
    }

    /// All (label, seconds) pairs sorted by label.
    pub fn entries(&self) -> Vec<(String, f64)> {
        self.iter()
            .map(|(stage, seconds)| (stage.label().to_string(), seconds))
            .collect()
    }

    /// Whether no time has been recorded.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Removes all recorded time.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

impl std::fmt::Display for StageBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total();
        for (stage, secs) in self.iter() {
            let pct = if total > 0.0 {
                secs / total * 100.0
            } else {
                0.0
            };
            writeln!(f, "{:<24} {secs:>12.6} s  ({pct:>5.1} %)", stage.label())?;
        }
        writeln!(f, "{:<24} {total:>12.6} s", "total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_fractions() {
        let mut b = StageBreakdown::new();
        assert!(b.is_empty());
        b.add(Stage::DistanceCalc, 3.0);
        b.add(Stage::TopK, 1.0);
        b.add(Stage::DistanceCalc, 1.0);
        assert_eq!(b.total(), 5.0);
        assert_eq!(b.seconds(Stage::DistanceCalc), 4.0);
        assert_eq!(b.fraction(Stage::DistanceCalc), 0.8);
        assert_eq!(b.fraction(Stage::HostMerge), 0.0);
        assert_eq!(b.entries().len(), 2);
    }

    #[test]
    fn the_string_views_resolve_labels_and_read_zero_for_unknown_ones() {
        let mut b = StageBreakdown::new();
        b.add(Stage::DistanceCalc, 4.0);
        b.add(Stage::TopK, 1.0);
        assert_eq!(b.seconds("distance_calc"), 4.0);
        assert_eq!(b.fraction("topk"), 0.2);
        assert_eq!(b.seconds("unknown"), 0.0);
        assert_eq!(b.fraction("lut_constuction"), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = StageBreakdown::new();
        a.add(Stage::QueryTransfer, 1.0);
        let mut b = StageBreakdown::new();
        b.add(Stage::QueryTransfer, 2.0);
        b.add(Stage::ResultTransfer, 3.0);
        a.merge(&b);
        assert_eq!(a.seconds(Stage::QueryTransfer), 3.0);
        assert_eq!(a.seconds(Stage::ResultTransfer), 3.0);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.fraction(Stage::QueryTransfer), 0.0);
    }

    #[test]
    fn splice_replaces_the_slot_by_the_rescaled_inner_stages() {
        let mut outer = StageBreakdown::new();
        outer.add(Stage::HostMerge, 1.0);
        outer.add(Stage::DpuSearch, 6.0);
        let mut kernel = StageBreakdown::new();
        kernel.add(Stage::DistanceCalc, 2.0);
        kernel.add(Stage::TopK, 1.0);
        outer.splice(Stage::DpuSearch, &kernel);
        let stages: Vec<Stage> = outer.iter().map(|(s, _)| s).collect();
        assert_eq!(stages, [Stage::DistanceCalc, Stage::HostMerge, Stage::TopK]);
        assert_eq!(outer.seconds(Stage::DistanceCalc), 4.0);
        assert_eq!(outer.seconds(Stage::TopK), 2.0);
        assert_eq!(outer.total(), 7.0);
    }

    #[test]
    fn display_contains_stages() {
        let mut b = StageBreakdown::new();
        b.add(Stage::LutConstruction, 0.25);
        let s = format!("{b}");
        assert!(s.contains("lut_construction"));
        assert!(s.contains("total"));
    }

    /// The invariant byte-identity with the label-keyed records rests on.
    #[test]
    fn labels_ascend() {
        assert!(Stage::ALL.windows(2).all(|p| p[0].label() < p[1].label()));
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i);
            assert_eq!(Stage::from(s.label()), s);
        }
        assert_eq!(Stage::from("bench_push"), Stage::Other);
    }
}
