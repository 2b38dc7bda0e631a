//! The offline phase: mining, encoding, placement and MRAM loading.
//!
//! `UpAnnsBuilder` turns a trained [`IvfPqIndex`] plus (optionally) a
//! historical query workload into a ready-to-query [`UpAnnsEngine`]:
//!
//! 1. derive per-cluster access frequencies from the historical workload,
//! 2. run the PIM-aware data placement (Algorithm 1) — or the naive
//!    round-robin distribution for the PIM-naive baseline,
//! 3. mine high-frequency code combinations and re-encode every cluster
//!    (Opt3), and
//! 4. stage codebook, ids and code payloads into every DPU's MRAM.
//!
//! None of this counts toward query latency; the engine resets the simulated
//! clock before every batch.

use crate::config::UpAnnsConfig;
use crate::cooccurrence::{mine_cluster_combos, MiningParams};
use crate::encoding::CaeList;
use crate::engine::{EpochState, UpAnnsEngine};
use crate::kernel::{ClusterReplica, DpuStore, ListEncoding};
use crate::placement::{place_pim_aware, place_round_robin, Placement, PlacementInput};
use annkit::ivf::{InvertedList, IvfPqIndex};
use annkit::mutation::SnapshotTimeline;
use annkit::pq::ProductQuantizer;
use annkit::vector::Dataset;
use pim_sim::config::PimConfig;
use pim_sim::host::PimSystem;
use std::collections::HashMap;
use std::sync::Arc;

/// What [`UpAnnsBuilder::with_batch_capacity`] takes and ignores. A launch
/// sizes its own staging buffers (`engine`'s stage 3), so nothing is sized
/// from a hint. The type and the method are a shim: the benchmark harness
/// (`benchmark/src/fixtures.rs`) still calls them and is edited only by
/// `[benchmark]` PRs; drop both at the next benchmark revision, like
/// [`MultiHostUpAnns`](crate::multihost::MultiHostUpAnns).
#[derive(Debug, Clone)]
pub struct BatchCapacity {
    /// Unread.
    pub batch_size: usize,
    /// Unread.
    pub nprobe: usize,
    /// Unread.
    pub max_k: usize,
}

/// Builder of [`UpAnnsEngine`]s (and, with [`UpAnnsConfig::pim_naive`], of the
/// PIM-naive baseline).
pub struct UpAnnsBuilder<'a> {
    index: &'a IvfPqIndex,
    config: UpAnnsConfig,
    pim_config: PimConfig,
    frequencies: Option<Vec<f64>>,
    placement_override: Option<Placement>,
}

impl<'a> UpAnnsBuilder<'a> {
    /// Creates a builder over a trained index with default configuration
    /// (full UpANNS, the paper's 7-DIMM system).
    pub fn new(index: &'a IvfPqIndex) -> Self {
        Self {
            index,
            config: UpAnnsConfig::upanns(),
            pim_config: PimConfig::paper_seven_dimms(),
            frequencies: None,
            placement_override: None,
        }
    }

    /// Sets the engine configuration (use [`UpAnnsConfig::pim_naive`] for the
    /// baseline).
    pub fn with_config(mut self, config: UpAnnsConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the simulated PIM hardware configuration (number of DPUs, etc.).
    pub fn with_pim_config(mut self, pim: PimConfig) -> Self {
        self.pim_config = pim;
        self
    }

    /// Supplies per-cluster historical access frequencies directly.
    pub fn with_frequencies(mut self, frequencies: Vec<f64>) -> Self {
        assert_eq!(
            frequencies.len(),
            self.index.nlist(),
            "one frequency per cluster required"
        );
        self.frequencies = Some(frequencies);
        self
    }

    /// Derives per-cluster access frequencies from a historical query set by
    /// running cluster filtering on it (the way the paper's offline phase
    /// consumes past workload).
    pub fn with_history(mut self, history: &Dataset, nprobe: usize) -> Self {
        self.frequencies = Some(frequencies_from_queries(self.index, history, nprobe));
        self
    }

    /// Uses an externally computed placement instead of running Algorithm 1
    /// (or round-robin) inside the builder. This is how an adapted placement
    /// from [`crate::adaptive`] is turned back into a ready engine after a
    /// query-pattern shift (§4.1.2).
    ///
    /// The placement must target the same cluster count and DPU count the
    /// builder is configured for; [`build`](Self::build) validates it.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement_override = Some(placement);
        self
    }

    /// Returns the builder unchanged: see [`BatchCapacity`].
    pub fn with_batch_capacity(self, _capacity: BatchCapacity) -> Self {
        self
    }

    /// Runs the offline phase and returns a ready engine serving a frozen
    /// single-entry timeline. The builder's inputs are retained by the
    /// engine as its build recipe, so installing a [`SnapshotTimeline`]
    /// later re-runs this same offline phase over the installed entries.
    pub fn build(self) -> UpAnnsEngine {
        let nlist = self.index.nlist();
        let recipe = BuildRecipe {
            config: self.config,
            pim_config: self.pim_config,
            frequencies: self
                .frequencies
                .unwrap_or_else(|| vec![1.0 / nlist as f64; nlist]),
        };
        let timeline = SnapshotTimeline::new(self.index.clone());
        let fleet = build_fleet(&timeline, &recipe, self.placement_override);
        UpAnnsEngine::from_build(recipe, timeline, fleet)
    }
}

/// The offline-phase inputs an engine keeps so it can rebuild its fleet
/// when a snapshot timeline is installed. The access frequencies (uniform
/// when no history is supplied) are reused across epochs: the workload
/// history does not change when the corpus mutates, and the cluster count
/// is invariant under mutation (upserts assign to existing coarse clusters).
#[derive(Clone)]
pub(crate) struct BuildRecipe {
    pub(crate) config: UpAnnsConfig,
    pub(crate) pim_config: PimConfig,
    pub(crate) frequencies: Vec<f64>,
}

/// Runs steps 1–4 of the offline phase over every entry of `timeline` into
/// one fleet: each entry is placed against its own list sizes (the first
/// one by `placement_override`, if given), each distinct list `Arc` is mined,
/// encoded and staged once, and a DPU maps it once however many epochs
/// host it there. Returns the fleet and one epoch state per entry.
pub(crate) fn build_fleet(
    timeline: &SnapshotTimeline,
    recipe: &BuildRecipe,
    placement_override: Option<Placement>,
) -> (PimSystem, Vec<EpochState>) {
    let entries = timeline.entries();
    let first = &entries[0].1;
    let num_dpus = recipe.pim_config.num_dpus;

    // 1–2. Each entry's placement, under the recipe's access frequencies.
    let placements = annkit::par::map_indexed(entries.len(), |i| {
        let snapshot = &entries[i].1;
        let placement_input = PlacementInput::new(
            snapshot.list_sizes(),
            recipe.frequencies.clone(),
            num_dpus,
            max_dpu_vectors(snapshot.m(), &recipe.pim_config),
        );
        let placement = match placement_override.as_ref().filter(|_| i == 0) {
            Some(p) => p.clone(),
            None if recipe.config.pim_aware_placement => place_pim_aware(&placement_input),
            None => place_round_robin(&placement_input),
        };
        placement
            .validate(&placement_input)
            .expect("placement must satisfy structural invariants");
        placement
    });

    // 3. Mining + re-encoding (Opt3), once per distinct list: an entry
    // shares every list its mutations left alone with the entry before.
    let mut slot_of: HashMap<(usize, *const InvertedList), usize> = HashMap::new();
    let mut lists: Vec<&InvertedList> = Vec::new();
    for (_, snapshot) in entries {
        for (c, list) in snapshot.lists().iter().enumerate() {
            slot_of.entry((c, Arc::as_ptr(list))).or_insert_with(|| {
                lists.push(list);
                lists.len() - 1
            });
        }
    }
    let m = first.m();
    let mined = annkit::par::map_indexed(lists.len(), |i| {
        let list = lists[i];
        let encoded = (recipe.config.cooccurrence_encoding && !list.is_empty()).then(|| {
            let table = mine_cluster_combos(list.packed_codes(), m, &MiningParams::default());
            let cae = CaeList::encode(list.packed_codes(), m, &table);
            (table, Arc::new(cae))
        });
        let ids: Arc<[u8]> = list.ids().iter().flat_map(|id| id.to_le_bytes()).collect();
        let payload: Arc<[u8]> = match &encoded {
            Some((_, cae)) => cae.to_bytes().into(),
            None => list.packed_codes().into(),
        };
        (encoded, ids, payload)
    });

    // 4. Stage everything into MRAM.
    // The codebook and each list are staged once on the host; every DPU
    // that holds them maps that one copy. The query buffers and mailboxes
    // are the engine's, sized by its launches, not here.
    let mut sys = PimSystem::new(recipe.pim_config.clone());
    let codebook: Arc<[u8]> = quantized_codebook(first.pq()).into();
    let with_codebook: Vec<DpuStore> = (0..num_dpus)
        .map(|dpu| DpuStore {
            codebook_addr: sys
                .mram_map_shared(dpu, &codebook)
                .expect("codebook fits in MRAM"),
            codebook_bytes: codebook.len(),
            ..DpuStore::default()
        })
        .collect();

    // The replica a DPU holds of each list it maps, by (DPU, list slot).
    let mut mapped: HashMap<(usize, usize), ClusterReplica> = HashMap::new();
    let mut epochs = Vec::with_capacity(entries.len());
    for (placement, (_, snapshot)) in placements.into_iter().zip(entries) {
        let mut stores = with_codebook.clone();
        let mut combos = HashMap::new();
        let mut reduction_rates = Vec::new();
        for (cluster, dpus) in placement.cluster_to_dpus.iter().enumerate() {
            let list = &snapshot.lists()[cluster];
            if list.is_empty() {
                continue;
            }
            let slot = slot_of[&(cluster, Arc::as_ptr(list))];
            let (encoded, ids, payload) = &mined[slot];
            if let Some((table, cae)) = encoded {
                combos.insert(cluster, table.clone());
                reduction_rates.push(cae.reduction_rate());
            }
            for &dpu in dpus {
                let replica = mapped.entry((dpu, slot)).or_insert_with(|| ClusterReplica {
                    cluster,
                    num_vectors: list.len(),
                    ids_addr: sys.mram_map_shared(dpu, ids).expect("ids fit in MRAM"),
                    codes_addr: sys
                        .mram_map_shared(dpu, payload)
                        .expect("codes fit in MRAM"),
                    codes_bytes: payload.len(),
                    encoding: match encoded {
                        Some((_, cae)) => ListEncoding::CaeU16(Arc::clone(cae)),
                        None => ListEncoding::PlainU8,
                    },
                });
                stores[dpu].replicas.insert(cluster, replica.clone());
            }
        }
        epochs.push(EpochState {
            placement,
            combos,
            reduction_rates,
            stores,
        });
    }
    (sys, epochs)
}

/// The placement's cap on vectors per DPU (`MAX_DPU_SIZE` of Algorithm 1):
/// MRAM over the bytes a vector of `m`-byte codes may be staged as (its code
/// at the CAE's two bytes per element, plus its 8-byte id).
pub fn max_dpu_vectors(m: usize, pim: &PimConfig) -> usize {
    pim.mram_bytes / (m.max(2) * 2 + 8)
}

/// Derives per-cluster access frequencies by cluster-filtering a historical
/// query set (normalized to sum to 1).
pub fn frequencies_from_queries(index: &IvfPqIndex, history: &Dataset, nprobe: usize) -> Vec<f64> {
    let mut counts = vec![0u64; index.nlist()];
    for q in history.iter() {
        for (c, _) in index.filter_clusters(q, nprobe) {
            counts[c] += 1;
        }
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![1.0 / index.nlist() as f64; index.nlist()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Quantizes the f32 codebook to 1 byte per component for MRAM staging (the
/// representation whose size the paper quotes: 32 KB for SIFT). The values
/// themselves are only used to account WRAM/MRAM traffic; the functional LUT
/// is built from the full-precision codebook on the host side of the
/// simulator.
fn quantized_codebook(pq: &ProductQuantizer) -> Vec<u8> {
    let flat = pq.codebooks_flat();
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &x in flat {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let range = (hi - lo).max(f32::MIN_POSITIVE);
    flat.iter()
        .map(|&x| (((x - lo) / range) * 255.0).round() as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use annkit::ivf::IvfPqParams;
    use annkit::synthetic::SyntheticSpec;
    use pim_sim::mram::MramAddr;
    use std::sync::OnceLock;

    /// Modeled MRAM of the 16-DPU engine below: each DPU is charged in full
    /// for every payload it maps, shared or not. It counts only the codebook
    /// and the mapped lists: a build allocates no staging buffer.
    const TOTAL_MRAM_ALLOCATED: usize = 730_736;

    fn shared_index() -> &'static (IvfPqIndex, Dataset) {
        static IX: OnceLock<(IvfPqIndex, Dataset)> = OnceLock::new();
        IX.get_or_init(|| {
            let data = SyntheticSpec::sift_like(1600)
                .with_clusters(8)
                .with_seed(8)
                .generate();
            let index = IvfPqIndex::train(&data, &IvfPqParams::new(8, 16).with_train_size(700), 4);
            (index, data)
        })
    }

    #[test]
    fn builds_an_engine_with_every_cluster_stored() {
        let (index, _) = shared_index();
        let engine = UpAnnsBuilder::new(index)
            .with_pim_config(PimConfig::with_dpus(4))
            .build();
        // Every non-empty cluster must be hosted by at least one DPU store.
        for c in 0..index.nlist() {
            if index.list(c).is_empty() {
                continue;
            }
            let hosted = engine
                .stores()
                .iter()
                .filter(|s| s.replicas.contains_key(&c))
                .count();
            assert!(hosted >= 1, "cluster {c} not staged on any DPU");
            assert_eq!(hosted, engine.placement().replicas(c));
        }
    }

    #[test]
    fn pim_naive_uses_round_robin_and_plain_codes() {
        let (index, _) = shared_index();
        let engine = UpAnnsBuilder::new(index)
            .with_config(UpAnnsConfig::pim_naive())
            .with_pim_config(PimConfig::with_dpus(4))
            .build();
        assert_eq!(engine.placement().total_replicas(), index.nlist());
        for store in engine.stores() {
            #[expect(
                clippy::iter_over_hash_type,
                clippy::disallowed_methods,
                reason = "every replica is checked; order is moot"
            )]
            for replica in store.replicas.values() {
                assert!(matches!(replica.encoding, ListEncoding::PlainU8));
            }
        }
        assert!(engine.mean_reduction_rate() == 0.0);
    }

    #[test]
    fn cae_build_records_reduction_rates() {
        let (index, _) = shared_index();
        let engine = UpAnnsBuilder::new(index)
            .with_pim_config(PimConfig::with_dpus(4))
            .build();
        assert!(engine.mean_reduction_rate() >= 0.0);
        assert!(engine.mean_reduction_rate() < 1.0);
    }

    #[test]
    fn history_frequencies_sum_to_one_and_bias_placement() {
        let (index, data) = shared_index();
        let history = data.gather(&(0..200).map(|i| i * 3 % 1600).collect::<Vec<_>>());
        let freqs = frequencies_from_queries(index, &history, 3);
        assert_eq!(freqs.len(), index.nlist());
        assert!((freqs.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        let engine = UpAnnsBuilder::new(index)
            .with_history(&history, 3)
            .with_pim_config(PimConfig::with_dpus(4))
            .build();
        assert!(engine.placement().max_to_avg_workload() < 2.0);
    }

    #[test]
    fn quantized_codebook_has_expected_size() {
        let (index, _) = shared_index();
        let cb = quantized_codebook(index.pq());
        assert_eq!(cb.len(), index.dim() * 256);
        assert_eq!(cb.len(), index.pq().codebooks_flat().len());
    }

    #[test]
    fn every_dpu_maps_one_host_copy_of_the_codebook_and_of_each_list() {
        let (index, _) = shared_index();
        let engine = UpAnnsBuilder::new(index)
            .with_pim_config(PimConfig::with_dpus(16))
            .build();
        let sys = engine.pim_system();
        let stores = engine.stores();
        let staged = |dpu: usize, addr: MramAddr, len: usize| {
            let bytes = sys.dpu(dpu).mram().read(addr, len).expect("staged bytes");
            bytes.as_ptr()
        };
        let codebook = staged(0, stores[0].codebook_addr, stores[0].codebook_bytes);
        for (dpu, store) in stores.iter().enumerate() {
            let here = staged(dpu, store.codebook_addr, store.codebook_bytes);
            assert!(
                std::ptr::eq(here, codebook),
                "DPU {dpu} holds its own codebook"
            );
        }
        let mut replicated = 0;
        for c in 0..index.nlist() {
            let hosts: Vec<(usize, &ClusterReplica)> = stores
                .iter()
                .enumerate()
                .filter_map(|(dpu, store)| store.replicas.get(&c).map(|r| (dpu, r)))
                .collect();
            let Some(&(first, r0)) = hosts.first() else {
                continue;
            };
            let ids = staged(first, r0.ids_addr, r0.num_vectors * 8);
            let codes = staged(first, r0.codes_addr, r0.codes_bytes);
            for &(dpu, r) in &hosts[1..] {
                let here = staged(dpu, r.ids_addr, r.num_vectors * 8);
                assert!(
                    std::ptr::eq(here, ids),
                    "cluster {c}: DPU {dpu} copied the ids"
                );
                let here = staged(dpu, r.codes_addr, r.codes_bytes);
                assert!(
                    std::ptr::eq(here, codes),
                    "cluster {c}: DPU {dpu} copied the codes"
                );
            }
            replicated += usize::from(hosts.len() > 1);
        }
        assert!(replicated > 0, "the fixture replicates no list");
        // Modeled MRAM still charges every DPU each payload it maps.
        assert_eq!(sys.total_mram_allocated(), TOTAL_MRAM_ALLOCATED);
    }

    /// Modeled MRAM of the same engine after installing the timeline below:
    /// the fresh build's plus every list a later epoch stages anew (again
    /// only the codebook and the mapped lists).
    const TIMELINE_MRAM_ALLOCATED: usize = 893_808;

    #[test]
    fn an_installed_timeline_stages_each_list_once_across_epochs() {
        use annkit::mutation::MutableIvf;
        use baselines::engine::AnnEngine;
        let (index, data) = shared_index();
        let mut engine = UpAnnsBuilder::new(index)
            .with_pim_config(PimConfig::with_dpus(16))
            .build();
        // Three entries; each upserts copies of two vectors, so it changes
        // at most two of the eight lists and leaves the rest shared.
        let mut live = MutableIvf::new(index);
        let mut timeline = SnapshotTimeline::new(live.snapshot());
        for step in 0..2u64 {
            for row in [3 + step as usize * 400, 1200 - step as usize * 300] {
                live.upsert(data.vector(row), 90_000 + step * 10 + row as u64);
            }
            timeline.install(10.0 * (step + 1) as f64, live.snapshot());
        }
        assert!(engine.install_timeline(timeline.clone()));
        let sys = engine.pim_system();
        let epochs = engine.epochs();
        let staged = |dpu: usize, addr: MramAddr, len: usize| {
            let bytes = sys.dpu(dpu).mram().read(addr, len).expect("staged bytes");
            bytes.as_ptr()
        };

        // One codebook mapping per DPU serves every epoch, and every DPU
        // maps one host copy.
        let codebook = staged(0, epochs[0].stores[0].codebook_addr, index.dim() * 256);
        for epoch in epochs {
            for (dpu, store) in epoch.stores.iter().enumerate() {
                assert_eq!(store.codebook_addr, epochs[0].stores[dpu].codebook_addr);
                let here = staged(dpu, store.codebook_addr, store.codebook_bytes);
                assert!(
                    std::ptr::eq(here, codebook),
                    "DPU {dpu} holds its own codebook"
                );
            }
        }

        // A list one entry shares with the one before is mined once and
        // read from the same staged bytes on every DPU that hosts it in
        // both epochs.
        let (mut shared, mut changed, mut reused) = (0, 0, 0);
        let entries = timeline.entries();
        for i in 1..entries.len() {
            let (before, after) = (&epochs[i - 1], &epochs[i]);
            for c in 0..index.nlist() {
                if !Arc::ptr_eq(&entries[i - 1].1.lists()[c], &entries[i].1.lists()[c]) {
                    changed += 1;
                    continue;
                }
                shared += 1;
                let (t0, t1) = (&before.combos[&c], &after.combos[&c]);
                assert!(
                    std::ptr::eq(t0.combos().as_ptr(), t1.combos().as_ptr()),
                    "list {c}: re-mined"
                );
                for (dpu, (s0, s1)) in before.stores.iter().zip(&after.stores).enumerate() {
                    let (Some(r0), Some(r1)) = (s0.replicas.get(&c), s1.replicas.get(&c)) else {
                        continue;
                    };
                    assert_eq!((r0.ids_addr, r0.codes_addr), (r1.ids_addr, r1.codes_addr));
                    let (ListEncoding::CaeU16(e0), ListEncoding::CaeU16(e1)) =
                        (&r0.encoding, &r1.encoding)
                    else {
                        panic!("list {c}: not CAE-encoded");
                    };
                    assert!(Arc::ptr_eq(e0, e1), "list {c}: DPU {dpu} re-encoded");
                    let here = staged(dpu, r1.codes_addr, r1.codes_bytes);
                    let before = staged(dpu, r0.codes_addr, r0.codes_bytes);
                    assert!(std::ptr::eq(here, before), "list {c}: DPU {dpu} re-staged");
                    reused += 1;
                }
            }
        }
        assert!(
            changed > 0 && shared > 0 && reused > 0,
            "{changed} changed, {shared} shared, {reused} reused"
        );
        assert_eq!(sys.total_mram_allocated(), TIMELINE_MRAM_ALLOCATED);
    }
}
