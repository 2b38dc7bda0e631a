//! Live index mutation: streaming upserts/deletes over an [`IvfPqIndex`]
//! with epoch-stamped copy-on-write snapshots.
//!
//! Production ANN never serves a frozen index. [`MutableIvf`] is the live
//! [`IvfPqIndex`] plus its id → list map. An upsert appends to the vector's
//! list, a delete rebuilds its list without the entry (the order of the
//! rest is kept), and each bumps a monotonically increasing **epoch**. The
//! index shares its lists through `Arc`s, so a write copies only the list
//! it touches, and only while a snapshot still shares it.
//! [`snapshot`](MutableIvf::snapshot) is a clone of the live index — one
//! reference-count bump per list — and every engine searches it like any
//! other index while mutations continue.
//!
//! [`SnapshotTimeline`] maps the replay clock onto snapshots: the serving
//! layer installs a snapshot at each refresh point and every query resolves
//! the snapshot (and epoch) active at its own arrival time. Because
//! activation and arrival times come from the deterministic replay clock,
//! the threaded twin resolves the exact same snapshot per query — answers
//! stay a pure function of `(query, options, mutation stream, arrival)`.
//!
//! Compaction ([`MutableIvf::compact`]) changes no list: it reports the lists
//! written since the previous compaction — the data a real system would
//! rewrite — and starts a new count. Answers and the epoch are untouched.
//! Its cost is modeled as a [`CompactionWindow`] on the timeline; requests
//! landing inside a window are stalled to the window's end by the engines.

use crate::ivf::IvfPqIndex;
use crate::vector::residual;
use std::collections::HashMap;
use std::ops::Deref;

/// Statistics returned by a [`MutableIvf::compact`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompactionStats {
    /// Inverted lists written since the previous compaction.
    pub folded_lists: usize,
    /// Bytes (ids + codes) of those lists now — the data a real system
    /// would rewrite, and the quantity the cost model charges.
    pub moved_bytes: usize,
}

/// The live index: an [`IvfPqIndex`] (read through `Deref`) plus the map
/// from id to the list holding it.
#[derive(Debug, Clone)]
pub struct MutableIvf {
    index: IvfPqIndex,
    /// id → cluster, for O(1)-ish deletes. Point lookups only — never
    /// iterated, so hash order cannot leak into any answer.
    locations: HashMap<u64, usize>,
    /// `written[c]`: list `c` changed since the last compaction.
    written: Vec<bool>,
    /// The coarse assignment's scratch: one distance per list, reused by
    /// every upsert.
    distances: Vec<f32>,
}

impl Deref for MutableIvf {
    type Target = IvfPqIndex;

    fn deref(&self) -> &IvfPqIndex {
        &self.index
    }
}

impl MutableIvf {
    /// Makes `index` live, sharing its lists until they are written.
    pub fn new(index: &IvfPqIndex) -> Self {
        let mut locations = HashMap::with_capacity(index.ntotal() as usize);
        for (c, list) in index.lists().iter().enumerate() {
            for &id in list.ids() {
                locations.insert(id, c);
            }
        }
        Self {
            index: index.clone(),
            locations,
            written: vec![false; index.nlist()],
            distances: vec![0.0; index.nlist()],
        }
    }

    /// Whether `id` is currently indexed.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.locations.contains_key(&id)
    }

    /// Inserts `vector` under `id`, replacing any existing entry with that
    /// id (upsert semantics). Bumps the epoch exactly once.
    pub fn upsert(&mut self, vector: &[f32], id: u64) {
        assert_eq!(vector.len(), self.dim(), "upsert dimension mismatch");
        self.remove_entry(id);
        let (c, _) = self.index.coarse().assign(vector, &mut self.distances);
        let code = self
            .pq()
            .encode(&residual(vector, self.coarse().centroid(c)));
        self.index.push(c, id, &code);
        self.written[c] = true;
        self.locations.insert(id, c);
        self.index.epoch += 1;
    }

    /// Deletes `id` if present. Returns whether anything was removed; a
    /// no-op delete does **not** bump the epoch (no snapshot changed).
    pub fn delete(&mut self, id: u64) -> bool {
        let removed = self.remove_entry(id);
        self.index.epoch += u64::from(removed);
        removed
    }

    fn remove_entry(&mut self, id: u64) -> bool {
        let Some(c) = self.locations.remove(&id) else {
            return false;
        };
        self.index.remove(c, id);
        self.written[c] = true;
        true
    }

    /// A point-in-time snapshot: a clone of the live index, sharing every
    /// list. Later mutations copy a list before writing it, so the snapshot
    /// never changes.
    pub fn snapshot(&self) -> IvfPqIndex {
        self.index.clone()
    }

    /// Reports the lists written since the previous compaction, and their
    /// bytes now, then starts a new count. No list or answer changes, and
    /// the epoch does not advance.
    pub fn compact(&mut self) -> CompactionStats {
        let m = self.m();
        let mut stats = CompactionStats::default();
        for (c, written) in self.written.iter_mut().enumerate() {
            if std::mem::take(written) {
                stats.folded_lists += 1;
                stats.moved_bytes += self.index.list(c).bytes(m);
            }
        }
        stats
    }
}

/// A compaction window on the replay clock: requests whose batch closes
/// inside `[start, end)` are stalled to `end` by the engines (the modeled
/// cost of the background fold + re-placement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionWindow {
    /// Window start (replay-clock seconds).
    pub start: f64,
    /// Window end (replay-clock seconds); must be `>= start`.
    pub end: f64,
}

impl CompactionWindow {
    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }
}

/// Maps the deterministic replay clock onto installed snapshots.
///
/// The serving layer installs a snapshot at each refresh point; engines
/// resolve the snapshot active at each query's arrival time, so the replay
/// and the threaded twin — which agree on arrival times by construction —
/// serve identical epochs.
#[derive(Debug, Clone)]
pub struct SnapshotTimeline {
    /// `(activation_time, snapshot)`, sorted by activation time. The first
    /// entry activates at `-inf` (it serves everything before the first
    /// refresh).
    entries: Vec<(f64, IvfPqIndex)>,
    windows: Vec<CompactionWindow>,
}

impl SnapshotTimeline {
    /// A timeline that serves `initial` forever (until more snapshots are
    /// installed).
    pub fn new(initial: IvfPqIndex) -> Self {
        Self {
            entries: vec![(f64::NEG_INFINITY, initial)],
            windows: Vec::new(),
        }
    }

    /// Convenience: a frozen timeline over `index` (which it shares).
    pub fn frozen(index: &IvfPqIndex) -> Self {
        Self::new(index.clone())
    }

    /// Installs `snapshot` to activate at time `at` (must not precede the
    /// previously installed activation).
    pub fn install(&mut self, at: f64, snapshot: IvfPqIndex) {
        let last = self
            .entries
            .last()
            .map(|(t, _)| *t)
            .unwrap_or(f64::NEG_INFINITY);
        assert!(
            at >= last,
            "snapshot activations must be monotone: {at} < {last}"
        );
        self.entries.push((at, snapshot));
    }

    /// Records a compaction window (monotone, non-overlapping by caller
    /// contract).
    pub fn push_window(&mut self, start: f64, end: f64) {
        assert!(end >= start, "compaction window ends before it starts");
        self.windows.push(CompactionWindow { start, end });
    }

    /// The snapshot active at time `t`: the installed entry with the
    /// largest activation `<= t`.
    pub fn at(&self, t: f64) -> &IvfPqIndex {
        &self.entries[self.index_at(t)].1
    }

    /// The entry index active at time `t` (engines keep per-entry derived
    /// state — placement, staged MRAM — in a parallel vector).
    pub fn index_at(&self, t: f64) -> usize {
        let idx = self.entries.partition_point(|(when, _)| *when <= t);
        idx.saturating_sub(1)
    }

    /// The epoch active at time `t`.
    #[inline]
    pub fn epoch_at(&self, t: f64) -> u64 {
        self.at(t).epoch()
    }

    /// Modeled compaction stall for a request at time `t`: the remaining
    /// span of the window containing `t`, or 0 outside every window.
    pub fn stall_after(&self, t: f64) -> f64 {
        self.windows
            .iter()
            .find(|w| w.contains(t))
            .map(|w| w.end - t)
            .unwrap_or(0.0)
    }

    /// All installed `(activation, snapshot)` entries, in activation order.
    pub fn entries(&self) -> &[(f64, IvfPqIndex)] {
        &self.entries
    }

    /// All recorded compaction windows.
    pub fn windows(&self) -> &[CompactionWindow] {
        &self.windows
    }

    /// The `(activation, epoch)` schedule, for layers that only need epochs
    /// (the result cache stamps entries with these).
    pub fn epoch_schedule(&self) -> Vec<(f64, u64)> {
        self.entries.iter().map(|(t, s)| (*t, s.epoch())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfPqParams;
    use crate::synthetic::SyntheticSpec;
    use crate::topk::Neighbor;
    use crate::vector::Dataset;

    fn fixture() -> (IvfPqIndex, Dataset) {
        let data = SyntheticSpec::sift_like(600)
            .with_clusters(8)
            .with_seed(19)
            .generate();
        let index = IvfPqIndex::train(&data, &IvfPqParams::new(8, 8).with_train_size(400), 3);
        (index, data)
    }

    #[test]
    fn unmutated_snapshot_matches_base_bitwise() {
        let (index, data) = fixture();
        let snap = MutableIvf::new(&index).snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.ntotal(), index.ntotal());
        assert_eq!(snap.list_sizes(), index.list_sizes().as_slice());
        for qi in [0usize, 13, 257, 599] {
            let a = index.search(data.vector(qi), 4, 10);
            let b = snap.search(data.vector(qi), 4, 10);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
    }

    #[test]
    fn snapshots_are_immune_to_later_mutations() {
        let (index, data) = fixture();
        let mut live = MutableIvf::new(&index);
        let before = live.snapshot();
        let baseline = before.search(data.vector(5), 8, 10);
        live.upsert(data.vector(5), 9000);
        live.delete(5);
        assert_eq!(live.epoch(), 2);
        let after = live.snapshot();
        // The old snapshot still sees the old world, bitwise.
        let replay = before.search(data.vector(5), 8, 10);
        assert_eq!(
            baseline.iter().map(|n| n.id).collect::<Vec<_>>(),
            replay.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        assert!(replay.iter().any(|n| n.id == 5));
        // The new snapshot sees the mutation.
        let fresh = after.search(data.vector(5), 8, 10);
        assert!(fresh.iter().all(|n| n.id != 5));
        assert!(fresh.iter().any(|n| n.id == 9000));
    }

    #[test]
    fn noop_delete_does_not_bump_the_epoch() {
        let (index, _) = fixture();
        let mut live = MutableIvf::new(&index);
        assert!(!live.delete(123_456));
        assert_eq!(live.epoch(), 0);
        assert!(live.delete(17));
        assert_eq!(live.epoch(), 1);
        assert!(!live.contains(17));
    }

    #[test]
    fn compaction_preserves_answers_and_epoch() {
        let (index, data) = fixture();
        let mut live = MutableIvf::new(&index);
        for i in 0..20u64 {
            live.upsert(data.vector((i as usize * 13) % 600), 10_000 + i);
        }
        for id in [3u64, 44, 199] {
            live.delete(id);
        }
        let epoch = live.epoch();
        let before = live.snapshot();
        let stats = live.compact();
        assert!(stats.folded_lists > 0);
        assert!(stats.moved_bytes > 0);
        assert_eq!(live.epoch(), epoch, "compaction must not advance the epoch");
        let after = live.snapshot();
        assert_eq!(before.ntotal(), after.ntotal());
        for qi in (0..600).step_by(37) {
            let a = before.search(data.vector(qi), 8, 10);
            let b = after.search(data.vector(qi), 8, 10);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
    }

    /// Whether `a` and `b` hold list `c` in the same allocation.
    fn shares(a: &IvfPqIndex, b: &IvfPqIndex, c: usize) -> bool {
        std::ptr::eq(a.list(c), b.list(c))
    }

    #[test]
    fn untouched_lists_are_shared_and_a_write_copies_its_list_once() {
        let (index, data) = fixture();
        let clone = index.clone();
        let mut live = MutableIvf::new(&index);
        let before = live.snapshot();
        for c in 0..index.nlist() {
            assert!(shares(&index, &clone, c), "clone, list {c}");
            assert!(shares(&index, &live, c), "MutableIvf::new, list {c}");
            assert!(shares(&index, &before, c), "snapshot, list {c}");
        }
        let answers = before.search(data.vector(5), 8, 10);

        let (target, _) = index
            .coarse()
            .assign(data.vector(5), &mut vec![0.0; index.nlist()]);
        live.upsert(data.vector(5), 9000);
        assert!(!shares(&index, &live, target), "first write");
        let copy: *const crate::ivf::InvertedList = live.list(target);
        live.upsert(data.vector(5), 9001);
        assert!(std::ptr::eq(live.list(target), copy), "second write");

        let after = live.snapshot();
        for c in 0..index.nlist() {
            assert_eq!(shares(&index, &after, c), c != target, "list {c}");
            assert!(shares(&index, &before, c), "old snapshot, list {c}");
        }
        let bits = |answer: &[Neighbor]| -> Vec<(u64, u32)> {
            answer
                .iter()
                .map(|n| (n.id, n.distance.to_bits()))
                .collect()
        };
        assert_eq!(bits(&before.search(data.vector(5), 8, 10)), bits(&answers));
    }

    #[test]
    fn compaction_counts_the_lists_written_since_the_last_one() {
        let (index, data) = fixture();
        let m = index.m();
        let (a, _) = index
            .coarse()
            .assign(data.vector(5), &mut vec![0.0; index.nlist()]);
        let b = (0..index.nlist())
            .find(|&c| c != a && !index.list(c).is_empty())
            .expect("a second populated list");
        let mut live = MutableIvf::new(&index);
        live.upsert(data.vector(5), 9000);
        live.upsert(data.vector(5), 9001);
        assert!(live.delete(index.list(b).ids()[0]));
        assert!(!live.delete(123_456), "an absent id writes no list");
        let epoch = live.epoch();
        let moved_bytes = live.list(a).bytes(m) + live.list(b).bytes(m);
        assert_eq!(
            live.compact(),
            CompactionStats {
                folded_lists: 2,
                moved_bytes
            }
        );
        assert_eq!(live.epoch(), epoch);
        assert_eq!(live.compact(), CompactionStats::default());
    }

    #[test]
    fn timeline_resolves_snapshots_and_windows_on_the_replay_clock() {
        let (index, data) = fixture();
        let mut live = MutableIvf::new(&index);
        let mut timeline = SnapshotTimeline::new(live.snapshot());
        live.upsert(data.vector(1), 7001);
        timeline.install(10.0, live.snapshot());
        live.upsert(data.vector(2), 7002);
        timeline.install(20.0, live.snapshot());
        timeline.push_window(12.0, 13.5);

        assert_eq!(timeline.epoch_at(0.0), 0);
        assert_eq!(timeline.epoch_at(10.0), 1);
        assert_eq!(timeline.epoch_at(15.0), 1);
        assert_eq!(timeline.epoch_at(25.0), 2);
        let frozen = SnapshotTimeline::frozen(&index);
        assert_eq!(frozen.epoch_schedule(), vec![(f64::NEG_INFINITY, 0)]);
        assert!(frozen.windows().is_empty());
        assert_eq!(timeline.stall_after(11.0), 0.0);
        assert!((timeline.stall_after(12.5) - 1.0).abs() < 1e-12);
        assert_eq!(timeline.stall_after(13.5), 0.0);
        assert_eq!(
            timeline.epoch_schedule(),
            vec![(f64::NEG_INFINITY, 0), (10.0, 1), (20.0, 2)]
        );
    }
}
