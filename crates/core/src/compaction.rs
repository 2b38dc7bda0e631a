//! Background compaction planning: turning a deterministic mutation stream
//! into a [`SnapshotTimeline`] with throttled refreshes and skew-triggered
//! compaction windows.
//!
//! The serving layer never mutates an index mid-batch. Instead the whole
//! mutation stream is walked **offline** on the replay clock (the same
//! pattern as the fault schedule in [`crate::replica`]): mutations apply to
//! a [`MutableIvf`] at their arrival times, but queries only observe a new
//! epoch at the next *refresh point* — the gap between the live index and
//! the served snapshot is the **staleness** the benchmark sweeps.
//!
//! At every refresh point the planner also runs the compaction decision
//! tick: if the per-list size skew (max/avg over the live index's
//! [`list_sizes`](annkit::ivf::IvfPqIndex::list_sizes)) exceeds the policy
//! threshold, [`MutableIvf::compact`] reports the lists written since the
//! last compaction (same epoch, no answer changes) and a
//! [`CompactionWindow`](annkit::mutation::CompactionWindow) charging the
//! modeled rewrite of those lists plus re-placement is recorded. Engines
//! stall requests that land inside a window; that stall is the "p99 during
//! compaction" the benchmark reports. Re-placement itself falls out of the
//! design for free: each installed snapshot gets its own placement when the
//! timeline is installed into an engine, and each list it changed is mined
//! and staged anew.

use annkit::ivf::IvfPqIndex;
use annkit::mutation::{CompactionStats, MutableIvf, SnapshotTimeline};
use annkit::workload::{MutationOp, MutationStream};

/// When and how hard the background compactor kicks in.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Max/avg list-size ratio above which a decision tick compacts.
    pub skew_threshold: f64,
    /// Minimum spacing between two compactions (seconds on the replay
    /// clock); decision ticks inside the cooldown never compact.
    pub min_interval_s: f64,
    /// Modeled fold throughput in bytes/s — `moved_bytes / bytes_per_second`
    /// is the compaction window's length.
    pub bytes_per_second: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            skew_threshold: 1.5,
            min_interval_s: 5.0,
            bytes_per_second: 64.0 * 1024.0 * 1024.0,
        }
    }
}

/// One compaction the planner scheduled.
#[derive(Debug, Clone)]
pub struct PlannedCompaction {
    /// Decision-tick time the fold started (replay clock).
    pub at: f64,
    /// Window end: `at + moved_bytes / bytes_per_second`.
    pub end: f64,
    /// What the fold moved.
    pub stats: CompactionStats,
    /// The skew that triggered it.
    pub skew: f64,
}

/// The outcome of planning a live index: the timeline engines serve, plus
/// the compactions that were scheduled along the way.
#[derive(Debug, Clone)]
pub struct LiveIndexPlan {
    /// Snapshot activations + compaction windows on the replay clock.
    pub timeline: SnapshotTimeline,
    /// Every compaction, in time order.
    pub compactions: Vec<PlannedCompaction>,
    /// The final mutation epoch (equals the stream's effective mutations).
    pub final_epoch: u64,
}

/// Max/avg ratio over the list sizes `sizes` (1.0 for a degenerate empty
/// index).
pub(crate) fn list_size_skew(sizes: &[usize]) -> f64 {
    let max = sizes.iter().copied().max().unwrap_or(0) as f64;
    let total: usize = sizes.iter().sum();
    if total == 0 || sizes.is_empty() {
        return 1.0;
    }
    let avg = total as f64 / sizes.len() as f64;
    max / avg
}

/// Walks `stream` over `base` on the replay clock, installing a snapshot
/// every `refresh_every_s` seconds and compacting per `policy`.
///
/// Determinism: everything is a pure function of the inputs — the stream is
/// pre-generated, refresh points are fixed multiples, and the decision tick
/// reads only the mutable index's own state.
///
/// # Panics
/// Panics if `refresh_every_s` is not positive and finite.
pub fn plan_live_index(
    base: &IvfPqIndex,
    stream: &MutationStream,
    refresh_every_s: f64,
    policy: &CompactionPolicy,
) -> LiveIndexPlan {
    assert!(
        refresh_every_s > 0.0 && refresh_every_s.is_finite(),
        "refresh interval must be positive and finite"
    );
    let mut live = MutableIvf::new(base);
    let mut timeline = SnapshotTimeline::new(live.snapshot());
    let mut compactions: Vec<PlannedCompaction> = Vec::new();
    let mut last_compaction = f64::NEG_INFINITY;
    let mut last_installed_epoch = 0u64;

    let mut refresh = |live: &mut MutableIvf,
                       timeline: &mut SnapshotTimeline,
                       compactions: &mut Vec<PlannedCompaction>,
                       t: f64| {
        let skew = list_size_skew(&live.list_sizes());
        if skew > policy.skew_threshold && t - last_compaction >= policy.min_interval_s {
            let stats = live.compact();
            if stats.folded_lists > 0 {
                let end = t + stats.moved_bytes as f64 / policy.bytes_per_second;
                timeline.push_window(t, end);
                compactions.push(PlannedCompaction {
                    at: t,
                    end,
                    stats,
                    skew,
                });
                last_compaction = t;
            }
        }
        // Install on epoch advance, when new answers become visible.
        if live.epoch() != last_installed_epoch {
            timeline.install(t, live.snapshot());
            last_installed_epoch = live.epoch();
        }
    };

    let mut next_refresh = refresh_every_s;
    for event in &stream.events {
        while event.at >= next_refresh {
            refresh(&mut live, &mut timeline, &mut compactions, next_refresh);
            next_refresh += refresh_every_s;
        }
        match &event.op {
            MutationOp::Upsert { id, vector } => live.upsert(vector, *id),
            MutationOp::Delete { id } => {
                live.delete(*id);
            }
        }
    }
    // A final refresh so the tail of the stream becomes visible (a no-op
    // when nothing changed since the last install).
    refresh(&mut live, &mut timeline, &mut compactions, next_refresh);

    LiveIndexPlan {
        timeline,
        compactions,
        final_epoch: live.epoch(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annkit::ivf::IvfPqParams;
    use annkit::synthetic::SyntheticSpec;
    use annkit::workload::MutationSpec;

    fn fixture() -> (IvfPqIndex, annkit::synthetic::SyntheticDataset) {
        let data = SyntheticSpec::sift_like(900)
            .with_clusters(8)
            .with_seed(23)
            .generate_with_meta();
        let index = IvfPqIndex::train(
            &data.vectors,
            &IvfPqParams::new(8, 8).with_train_size(500),
            3,
        );
        (index, data)
    }

    #[test]
    fn empty_stream_plans_a_frozen_timeline() {
        let (index, data) = fixture();
        let stream = MutationSpec::new(10.0).generate(&data, index.ntotal());
        let plan = plan_live_index(&index, &stream, 2.0, &CompactionPolicy::default());
        assert_eq!(plan.timeline.epoch_schedule(), vec![(f64::NEG_INFINITY, 0)]);
        assert!(plan.timeline.windows().is_empty());
        assert!(plan.compactions.is_empty());
        assert_eq!(plan.final_epoch, 0);
    }

    #[test]
    fn refreshes_throttle_visibility_and_cover_the_tail() {
        let (index, data) = fixture();
        let stream = MutationSpec::new(9.5)
            .with_tenant(annkit::workload::TenantId(1), 6.0, 1.0)
            .generate(&data, index.ntotal());
        assert!(!stream.is_empty());
        let plan = plan_live_index(&index, &stream, 2.0, &CompactionPolicy::default());
        let entries = plan.timeline.entries();
        // Activations are strict refresh multiples (plus the -inf base).
        for (t, _) in &entries[1..] {
            assert!((t / 2.0 - (t / 2.0).round()).abs() < 1e-9, "activation {t}");
        }
        // Epochs are monotone along the timeline and end at the final epoch.
        let epochs: Vec<u64> = entries.iter().map(|(_, s)| s.epoch()).collect();
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(epochs.last(), Some(&plan.final_epoch));
        assert!(plan.final_epoch > 0);
        // Between refreshes the served epoch is stale relative to the live
        // index: the epoch at t=1.9 is what was installed at t=0.
        assert_eq!(plan.timeline.epoch_at(1.9), 0);
    }

    #[test]
    fn skewed_growth_triggers_compaction_with_cooldown() {
        let (index, data) = fixture();
        // Hand-build a stream that dumps many near-identical vectors into
        // one cluster: skew must cross the default threshold.
        let donor = data.vectors.vector(0).to_vec();
        let events: Vec<annkit::workload::MutationEvent> = (0..300)
            .map(|i| annkit::workload::MutationEvent {
                at: 0.05 * (i + 1) as f64,
                tenant: annkit::workload::TenantId(1),
                op: MutationOp::Upsert {
                    id: 50_000 + i as u64,
                    vector: donor.clone(),
                },
            })
            .collect();
        let stream = MutationStream { events };
        let policy = CompactionPolicy {
            skew_threshold: 1.2,
            min_interval_s: 4.0,
            bytes_per_second: 1024.0 * 1024.0,
        };
        let plan = plan_live_index(&index, &stream, 2.0, &policy);
        assert!(
            !plan.compactions.is_empty(),
            "skewed growth must compact at least once"
        );
        for c in &plan.compactions {
            assert!(c.skew > policy.skew_threshold);
            assert!(c.end > c.at);
            assert!(c.stats.moved_bytes > 0);
        }
        // Cooldown respected.
        for pair in plan.compactions.windows(2) {
            assert!(pair[1].at - pair[0].at >= policy.min_interval_s - 1e-9);
        }
        // Windows stall requests inside them and are visible on the timeline.
        let w = plan.timeline.windows()[0];
        assert!(plan.timeline.stall_after((w.start + w.end) / 2.0) > 0.0);
        // Compaction never advances the epoch by itself.
        let schedule = plan.timeline.epoch_schedule();
        assert_eq!(schedule.last().map(|&(_, e)| e), Some(plan.final_epoch));
    }

    #[test]
    fn planning_is_deterministic() {
        let (index, data) = fixture();
        let spec = MutationSpec::new(12.0)
            .with_tenant(annkit::workload::TenantId(1), 4.0, 2.0)
            .with_tenant(annkit::workload::TenantId(2), 1.0, 0.5);
        let s1 = spec.clone().generate(&data, index.ntotal());
        let s2 = spec.generate(&data, index.ntotal());
        let p1 = plan_live_index(&index, &s1, 3.0, &CompactionPolicy::default());
        let p2 = plan_live_index(&index, &s2, 3.0, &CompactionPolicy::default());
        assert_eq!(p1.final_epoch, p2.final_epoch);
        assert_eq!(p1.timeline.epoch_schedule(), p2.timeline.epoch_schedule());
        assert_eq!(p1.compactions.len(), p2.compactions.len());
    }
}
