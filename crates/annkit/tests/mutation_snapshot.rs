//! Property proofs for the live-mutation layer (`annkit::mutation`):
//!
//! 1. **Snapshot immutability** — a snapshot taken at epoch E answers
//!    bitwise-identically no matter how many mutations (or compactions)
//!    happen after it was taken.
//! 2. **Incremental ≡ rebuilt** — the copy-on-write path at any epoch
//!    equals a `MutableIvf` rebuilt from scratch by replaying the same
//!    mutation prefix, bit for bit.
//! 3. **Delete-then-upsert id reuse** — an id deleted and re-upserted is
//!    indexed exactly once, under its new vector.
//! 4. **Compaction answer-invariance** — compacting never changes an answer
//!    at the same epoch (and never advances the epoch).
//!
//! Like `simd_equivalence.rs`, CI re-runs this whole suite under
//! `UPANNS_FORCE_SCALAR=1`, so the invariants are proven on both the SIMD
//! and the scalar ADC paths.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::mutation::MutableIvf;
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::topk::Neighbor;
use proptest::prelude::*;
use std::sync::OnceLock;

fn fixture() -> &'static (SyntheticDataset, IvfPqIndex) {
    static FIX: OnceLock<(SyntheticDataset, IvfPqIndex)> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = SyntheticSpec::sift_like(700)
            .with_clusters(8)
            .with_seed(41)
            .generate_with_meta();
        let index = IvfPqIndex::train(
            &data.vectors,
            &IvfPqParams::new(8, 8).with_train_size(400),
            3,
        );
        (data, index)
    })
}

/// One generated mutation: upsert (`true`) of dataset vector `vector_of`
/// under `id`, or delete (`false`) of `id`. Ids overlap the base id space
/// (0..700) *and* a fresh range, so deletes hit base entries, upserted
/// entries, and absent ids (no-ops that must not bump the epoch).
type Op = (bool, u64, usize);

fn apply(live: &mut MutableIvf, data: &SyntheticDataset, op: Op) {
    let (upsert, id, vector_of) = op;
    if upsert {
        live.upsert(data.vectors.vector(vector_of % 700), id);
    } else {
        live.delete(id);
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((any::<bool>(), 0u64..1100, 0usize..700), 1..36)
}

/// Bitwise comparison of two answer sets (ids and f32 distance bits).
fn assert_bitwise_equal(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.len(), y.len());
        for (n, m) in x.iter().zip(y) {
            assert_eq!(n.id, m.id);
            assert_eq!(n.distance.to_bits(), m.distance.to_bits());
        }
    }
}

fn search_all(snapshot: &IvfPqIndex, data: &SyntheticDataset) -> Vec<Vec<Neighbor>> {
    (0..5)
        .map(|q| snapshot.search(data.vectors.vector(q), 4, 10))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A snapshot is frozen at its epoch: later upserts, deletes and even a
    /// compaction of the live index change nothing it returns.
    #[test]
    fn snapshots_are_immutable_under_later_mutations(
        prefix in ops_strategy(),
        suffix in ops_strategy(),
    ) {
        let (data, index) = fixture();
        let mut live = MutableIvf::new(index);
        for &op in &prefix {
            apply(&mut live, data, op);
        }
        let snapshot = live.snapshot();
        let epoch = snapshot.epoch();
        let ntotal = snapshot.ntotal();
        let sizes = snapshot.list_sizes().to_vec();
        let answers = search_all(&snapshot, data);
        for &op in &suffix {
            apply(&mut live, data, op);
        }
        live.compact();
        prop_assert_eq!(snapshot.epoch(), epoch);
        prop_assert_eq!(snapshot.ntotal(), ntotal);
        prop_assert_eq!(snapshot.list_sizes(), &sizes[..]);
        assert_bitwise_equal(&search_all(&snapshot, data), &answers);
    }

    /// At every checkpoint epoch, the incrementally mutated index equals an
    /// index rebuilt from scratch by replaying the same mutation prefix —
    /// copy-on-write lists introduce no path dependence.
    #[test]
    fn incremental_equals_rebuilt_at_each_epoch(ops in ops_strategy()) {
        let (data, index) = fixture();
        let mut live = MutableIvf::new(index);
        let checkpoints = [ops.len() / 3, 2 * ops.len() / 3, ops.len()];
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut live, data, op);
            let step = i + 1;
            if !checkpoints.contains(&step) {
                continue;
            }
            let mut rebuilt = MutableIvf::new(index);
            for &p in &ops[..step] {
                apply(&mut rebuilt, data, p);
            }
            prop_assert_eq!(rebuilt.epoch(), live.epoch());
            prop_assert_eq!(rebuilt.ntotal(), live.ntotal());
            prop_assert_eq!(rebuilt.list_sizes(), live.list_sizes());
            assert_bitwise_equal(
                &search_all(&rebuilt.snapshot(), data),
                &search_all(&live.snapshot(), data),
            );
        }
    }

    /// Delete-then-upsert under the same id: the id is indexed exactly once
    /// afterwards, the epoch advances once per effective mutation, and a
    /// no-op delete of the (now absent) id does not advance it.
    #[test]
    fn delete_then_upsert_reuses_the_id(
        warmup in ops_strategy(),
        id in 0u64..1100,
        v1 in 0usize..700,
        v2 in 0usize..700,
    ) {
        let (data, index) = fixture();
        let mut live = MutableIvf::new(index);
        for &op in &warmup {
            apply(&mut live, data, op);
        }
        // Ensure the id exists, then delete it.
        live.upsert(data.vectors.vector(v1), id);
        let ntotal = live.ntotal();
        let epoch = live.epoch();
        prop_assert!(live.contains(id));
        prop_assert!(live.delete(id));
        prop_assert!(!live.contains(id));
        prop_assert_eq!(live.ntotal(), ntotal - 1);
        prop_assert_eq!(live.epoch(), epoch + 1);
        // A repeated delete is a no-op and must not bump the epoch.
        prop_assert!(!live.delete(id));
        prop_assert_eq!(live.epoch(), epoch + 1);
        // Re-upsert under the same id: indexed exactly once.
        live.upsert(data.vectors.vector(v2), id);
        prop_assert!(live.contains(id));
        prop_assert_eq!(live.ntotal(), ntotal);
        prop_assert_eq!(live.epoch(), epoch + 2);
        let snapshot = live.snapshot();
        let occurrences: usize = (0..snapshot.nlist())
            .map(|c| snapshot.list(c).ids().iter().filter(|&&x| x == id).count())
            .sum();
        prop_assert_eq!(occurrences, 1, "id must be indexed exactly once");
    }

    /// Compaction is answer-invariant: same epoch, bitwise-identical
    /// answers, identical sizes — and a second fold has nothing to move.
    #[test]
    fn compaction_preserves_answers_bitwise(ops in ops_strategy()) {
        let (data, index) = fixture();
        let mut live = MutableIvf::new(index);
        for &op in &ops {
            apply(&mut live, data, op);
        }
        let before = live.snapshot();
        let answers = search_all(&before, data);
        let stats = live.compact();
        let after = live.snapshot();
        prop_assert_eq!(after.epoch(), before.epoch(), "compaction never advances the epoch");
        prop_assert_eq!(after.ntotal(), before.ntotal());
        prop_assert_eq!(after.list_sizes(), before.list_sizes());
        assert_bitwise_equal(&search_all(&after, data), &answers);
        // Compaction started a new count, so an immediate second one moves
        // nothing.
        if stats.folded_lists > 0 {
            let again = live.compact();
            prop_assert_eq!(again.folded_lists, 0);
            prop_assert_eq!(again.moved_bytes, 0);
        }
    }
}
