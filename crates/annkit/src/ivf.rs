//! The IVFPQ index: an inverted file of PQ-encoded residuals.
//!
//! Offline, vectors are assigned to one of `nlist` coarse clusters (IVF) and
//! each vector's residual against its centroid is PQ-encoded into `m` bytes.
//! Online, a query probes the `nprobe` nearest clusters, builds one LUT per
//! probed cluster and ADC-scans that cluster's codes (see [`crate::lut`]).
//!
//! This structure is shared by every engine in the repository: the CPU/GPU
//! baselines scan it directly, and the PIM engines re-distribute its inverted
//! lists across DPUs.
//!
//! Every inverted list and both trained quantizers sit behind an [`Arc`], so
//! cloning an index copies no list: a clone is a point-in-time snapshot, and
//! [`crate::mutation::MutableIvf`] copies a list only on its first write
//! while a snapshot still shares it.

use crate::distance::nearest_centroids;
use crate::kmeans::{sample_indices, KMeans, KMeansParams};
use crate::lut::{mark_code_blocks, LookupTable};
use crate::par;
use crate::pq::ProductQuantizer;
use crate::topk::{Neighbor, TopK};
use crate::vector::{residual, Dataset};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Training / structural parameters of an IVFPQ index.
#[derive(Debug, Clone)]
pub struct IvfPqParams {
    /// Number of coarse clusters (the paper's `|C|` / "IVF" knob:
    /// 4096, 8192, 16384 at billion scale).
    pub nlist: usize,
    /// Number of PQ sub-quantizers (`M`): 16 for SIFT1B, 12 for DEEP1B, 20
    /// for SPACEV1B in the paper.
    pub m: usize,
    /// Number of vectors sampled for training the coarse quantizer and PQ
    /// codebooks (`None` = use the whole dataset).
    pub train_size: Option<usize>,
    /// Lloyd iterations for the coarse quantizer.
    pub coarse_iterations: usize,
}

impl IvfPqParams {
    /// Creates parameters for `nlist` clusters and `m` sub-quantizers with
    /// default training settings.
    pub fn new(nlist: usize, m: usize) -> Self {
        Self {
            nlist,
            m,
            train_size: None,
            coarse_iterations: 20,
        }
    }

    /// Caps the number of training vectors.
    pub fn with_train_size(mut self, n: usize) -> Self {
        self.train_size = Some(n);
        self
    }

    /// Overrides the coarse-quantizer iteration count.
    pub fn with_coarse_iterations(mut self, it: usize) -> Self {
        self.coarse_iterations = it;
        self
    }
}

/// One inverted list (cluster): parallel arrays of ids and packed codes,
/// plus the list's code-block mask.
#[derive(Debug, Clone, Default)]
pub struct InvertedList {
    ids: Vec<u64>,
    /// Packed codes: `len * m` bytes.
    packed: Vec<u8>,
    /// Code-block mask ([`mark_code_blocks`]) of every code ever pushed:
    /// `m` words once the list has held a code, empty before.
    blocks: Vec<u32>,
}

impl InvertedList {
    /// Number of vectors in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row ids stored in this list.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Packed PQ codes (`len * m` bytes).
    #[inline]
    pub fn packed_codes(&self) -> &[u8] {
        &self.packed
    }

    /// The list's code-block mask (see [`crate::lut`]): one `u32` per
    /// sub-quantizer covering every `(sub, code)` its codes use, for
    /// [`LookupTable::rebuild_masked`]. Empty for a list that never held a
    /// code. A removal leaves its code's bits set, so after deletes the mask
    /// is a superset — still correct, only less sparse.
    #[inline]
    pub fn code_blocks(&self) -> &[u32] {
        &self.blocks
    }

    /// Byte footprint of this list (ids + codes), the quantity the placement
    /// algorithm balances across DPUs.
    pub(crate) fn bytes(&self, m: usize) -> usize {
        self.ids.len() * (std::mem::size_of::<u64>() + m)
    }

    pub(crate) fn push(&mut self, id: u64, code: &[u8]) {
        self.ids.push(id);
        self.packed.extend_from_slice(code);
        self.blocks.resize(code.len(), 0);
        mark_code_blocks(code, &mut self.blocks);
    }
}

/// A trained, populated IVFPQ index, stamped with its mutation epoch.
///
/// `Clone` shares every list and both quantizers (reference-count bumps
/// only), which is all a snapshot is.
#[derive(Debug, Clone)]
pub struct IvfPqIndex {
    params: IvfPqParams,
    coarse: Arc<KMeans>,
    pq: Arc<ProductQuantizer>,
    lists: Vec<Arc<InvertedList>>,
    dim: usize,
    ntotal: u64,
    /// Advanced by `MutableIvf`, once per effective mutation.
    pub(crate) epoch: u64,
}

impl IvfPqIndex {
    /// Trains the coarse quantizer and PQ codebooks on (a sample of) `data`
    /// and adds every vector of `data` to the index.
    ///
    /// # Panics
    /// Panics if `data.dim() % params.m != 0` or `data.len() < params.nlist`.
    pub fn train(data: &Dataset, params: &IvfPqParams, seed: u64) -> Self {
        let mut index = Self::train_empty(data, params, seed);
        index.add(data, 0);
        index
    }

    /// Trains quantizers only, leaving the inverted lists empty (vectors are
    /// added separately with [`add`](Self::add)); a trained index's shards
    /// are [`fresh_like`](Self::fresh_like) plus `add` instead.
    pub fn train_empty(data: &Dataset, params: &IvfPqParams, seed: u64) -> Self {
        assert!(params.nlist > 0, "nlist must be positive");
        assert!(
            data.len() >= params.nlist,
            "need at least nlist={} training vectors, got {}",
            params.nlist,
            data.len()
        );
        let dim = data.dim();

        // Optionally subsample the training set.
        let mut rng = SmallRng::seed_from_u64(seed);
        let sampled;
        let train: &Dataset = match params.train_size {
            Some(cap) if data.len() > cap && cap >= params.nlist && cap >= crate::pq::KSUB => {
                sampled = data.gather(&sample_indices(data.len(), cap, &mut rng));
                &sampled
            }
            _ => data,
        };

        let kparams = KMeansParams::new(params.nlist).with_max_iterations(params.coarse_iterations);
        let coarse = KMeans::train(train, &kparams, seed);

        // PQ is trained on residuals, as in Faiss's IndexIVFPQ. The
        // assignments go out in row blocks; the residuals are pushed in row
        // order.
        let nearest = par::map_rows(
            train.len(),
            || vec![0.0f32; coarse.k()],
            |distances, i| coarse.assign(train.vector(i), distances).0,
        );
        let mut residuals = Dataset::with_capacity(dim, train.len());
        for (v, &c) in train.iter().zip(&nearest) {
            residuals.push(&residual(v, coarse.centroid(c)));
        }
        let pq = ProductQuantizer::train(&residuals, params.m, seed.wrapping_add(1));

        Self {
            params: params.clone(),
            coarse: Arc::new(coarse),
            pq: Arc::new(pq),
            lists: vec![Arc::default(); params.nlist],
            dim,
            ntotal: 0,
            epoch: 0,
        }
    }

    /// Adds all vectors of `data` to the index, assigning row ids
    /// `id_offset..id_offset + data.len()`.
    pub fn add(&mut self, data: &Dataset, id_offset: u64) {
        assert_eq!(data.dim(), self.dim, "add dimension mismatch");
        // Assign + encode is independent per row; the lists are then filled
        // serially in row order, exactly as the one-loop version filled them.
        let (coarse, pq) = (&*self.coarse, &*self.pq);
        let encoded = par::map_rows(
            data.len(),
            || vec![0.0f32; coarse.k()],
            |distances, i| {
                let v = data.vector(i);
                let (c, _) = coarse.assign(v, distances);
                (c, pq.encode(&residual(v, coarse.centroid(c))))
            },
        );
        // A list still shared with a clone is copied before it is written.
        let mut lists: Vec<&mut InvertedList> = self.lists.iter_mut().map(Arc::make_mut).collect();
        for (i, (c, code)) in encoded.into_iter().enumerate() {
            lists[c].push(id_offset + i as u64, &code);
        }
        self.ntotal += data.len() as u64;
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of coarse clusters.
    #[inline]
    pub fn nlist(&self) -> usize {
        self.params.nlist
    }

    /// Number of PQ sub-quantizers.
    #[inline]
    pub fn m(&self) -> usize {
        self.params.m
    }

    /// Total number of indexed vectors.
    #[inline]
    pub fn ntotal(&self) -> u64 {
        self.ntotal
    }

    /// The mutation epoch: the number of effective upserts and deletes a
    /// [`MutableIvf`](crate::mutation::MutableIvf) applied (0 when trained).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The trained coarse quantizer.
    #[inline]
    pub fn coarse(&self) -> &KMeans {
        &self.coarse
    }

    /// The trained product quantizer.
    #[inline]
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// The inverted list of cluster `c`.
    #[inline]
    pub fn list(&self, c: usize) -> &InvertedList {
        &self.lists[c]
    }

    /// All inverted lists.
    #[inline]
    pub fn lists(&self) -> &[Arc<InvertedList>] {
        &self.lists
    }

    /// Sizes of all inverted lists (the cluster-size skew of Figure 4b), in
    /// a fresh `Vec` of `nlist` entries.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.len()).collect()
    }

    /// Appends `(id, code)` to list `c`, copying the list first if a clone
    /// still shares it.
    pub(crate) fn push(&mut self, c: usize, id: u64, code: &[u8]) {
        Arc::make_mut(&mut self.lists[c]).push(id, code);
        self.ntotal += 1;
    }

    /// Removes `id` from list `c`, which must hold it, keeping the order of
    /// the rest; the list is copied first if a clone still shares it.
    pub(crate) fn remove(&mut self, c: usize, id: u64) {
        let m = self.params.m;
        let list = Arc::make_mut(&mut self.lists[c]);
        let i = list
            .ids
            .iter()
            .position(|&x| x == id)
            .expect("the id's list holds the id");
        list.ids.remove(i);
        list.packed.drain(i * m..(i + 1) * m);
        self.ntotal -= 1;
    }

    /// An index with the same trained quantizers (shared, not copied) but
    /// empty inverted lists, at epoch 0 — the starting point for adding a
    /// shard of the corpus.
    pub fn fresh_like(&self) -> IvfPqIndex {
        Self {
            lists: vec![Arc::default(); self.params.nlist],
            ntotal: 0,
            epoch: 0,
            ..self.clone()
        }
    }

    /// Total compressed footprint in bytes (ids + codes), the number that
    /// makes IVFPQ feasible at billion scale.
    pub fn compressed_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.bytes(self.params.m)).sum()
    }

    /// Stage (a) — cluster filtering: the `nprobe` coarse clusters nearest to
    /// the query, closest first: [`nearest_centroids`] over the coarse
    /// quantizer's column-major twin.
    pub fn filter_clusters(&self, query: &[f32], nprobe: usize) -> Vec<(usize, f32)> {
        nearest_centroids(
            query,
            self.coarse.centroids_cols(),
            self.params.nlist,
            nprobe,
        )
    }

    /// Stage (b) — LUT construction for one probed cluster: the full table,
    /// the dense reference that list-masked builds
    /// ([`LookupTable::rebuild_masked`]) are held to.
    pub fn build_lut(&self, query: &[f32], cluster: usize) -> LookupTable {
        let res = residual(query, self.coarse.centroid(cluster));
        LookupTable::build(&self.pq, &res)
    }

    /// Full single-query search: probes `nprobe` clusters and returns the
    /// `k` nearest neighbors by ADC distance (the reference sequential
    /// implementation that every engine must agree with).
    pub fn search(&self, query: &[f32], nprobe: usize, k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut topk = TopK::new(k);
        for (cluster, _) in self.filter_clusters(query, nprobe) {
            let lut = self.build_lut(query, cluster);
            let list = &self.lists[cluster];
            for (i, code) in list.packed.chunks_exact(self.params.m).enumerate() {
                topk.push(list.ids[i], lut.adc_distance(code));
            }
        }
        topk.into_sorted()
    }

    /// Batched search (the paper processes 1,000 queries at a time).
    pub fn search_batch(&self, queries: &Dataset, nprobe: usize, k: usize) -> Vec<Vec<Neighbor>> {
        queries.iter().map(|q| self.search(q, nprobe, k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::recall::recall_at_k;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn clustered_dataset(n: usize, dim: usize, clusters: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect())
            .collect();
        let mut ds = Dataset::new(dim);
        let mut v = vec![0.0f32; dim];
        for i in 0..n {
            let c = &centers[i % clusters];
            for (x, cx) in v.iter_mut().zip(c) {
                *x = cx + rng.gen_range(-2.0f32..2.0);
            }
            ds.push(&v);
        }
        ds
    }

    #[test]
    fn all_vectors_are_indexed_exactly_once() {
        let ds = clustered_dataset(800, 16, 8, 1);
        let index = IvfPqIndex::train(&ds, &IvfPqParams::new(8, 4), 42);
        assert_eq!(index.ntotal(), 800);
        let total: usize = index.list_sizes().iter().sum();
        assert_eq!(total, 800);

        // Every id 0..800 appears exactly once across lists.
        let mut seen = vec![false; 800];
        for list in index.lists() {
            for &id in list.ids() {
                assert!(!seen[id as usize], "id {id} indexed twice");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn search_finds_itself_with_full_probe() {
        let ds = clustered_dataset(600, 16, 6, 3);
        let index = IvfPqIndex::train(&ds, &IvfPqParams::new(6, 4), 7);
        // With nprobe = nlist the query's own cluster is always scanned, so
        // the query point itself should virtually always be in the top-5.
        let mut hits = 0;
        for qi in (0..600).step_by(60) {
            let res = index.search(ds.vector(qi), 6, 5);
            if res.iter().any(|n| n.id == qi as u64) {
                hits += 1;
            }
        }
        assert!(hits >= 8, "only {hits}/10 self-hits");
    }

    #[test]
    fn recall_against_exact_search_is_reasonable() {
        let ds = clustered_dataset(1000, 16, 10, 5);
        let index = IvfPqIndex::train(&ds, &IvfPqParams::new(10, 8), 11);
        let flat = FlatIndex::new(&ds);
        let queries = ds.gather(&(0..20).map(|i| i * 37).collect::<Vec<_>>());
        let approx = index.search_batch(&queries, 10, 10);
        let exact = flat.search_batch(&queries, 10);
        let recall = recall_at_k(&approx, &exact, 10);
        assert!(recall > 0.55, "recall {recall} too low");
    }

    #[test]
    fn higher_nprobe_never_decreases_candidate_coverage() {
        let ds = clustered_dataset(500, 16, 8, 9);
        let index = IvfPqIndex::train(&ds, &IvfPqParams::new(8, 4), 13);
        let q = ds.vector(17);
        let few = index.filter_clusters(q, 2);
        let many = index.filter_clusters(q, 6);
        assert_eq!(few.len(), 2);
        assert_eq!(many.len(), 6);
        // The closest clusters are a prefix of the bigger probe set.
        assert_eq!(few[0].0, many[0].0);
        assert_eq!(few[1].0, many[1].0);
    }

    #[test]
    fn compressed_footprint_is_much_smaller_than_raw() {
        let ds = clustered_dataset(1000, 32, 8, 2);
        let index = IvfPqIndex::train(&ds, &IvfPqParams::new(8, 8), 3);
        // Raw: 1000 * 32 * 4 = 128 kB. Compressed codes+ids: 1000 * (8 + 8) = 16 kB.
        assert!(index.compressed_bytes() * 4 < ds.raw_bytes());
    }

    #[test]
    fn add_with_offset_assigns_contiguous_ids() {
        let ds = clustered_dataset(400, 16, 4, 8);
        let mut index = IvfPqIndex::train(&ds, &IvfPqParams::new(4, 4), 21).fresh_like();
        assert_eq!(index.ntotal(), 0);
        index.add(&ds, 1000);
        let mut ids: Vec<u64> = index
            .lists()
            .iter()
            .flat_map(|l| l.ids().to_vec())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids.first(), Some(&1000));
        assert_eq!(ids.last(), Some(&1399));
        assert_eq!(ids.len(), 400);
    }

    /// FNV-1a over everything training produces: the bits of the coarse
    /// centroids and PQ codebooks, then every list's ids and codes.
    fn fingerprint(index: &IvfPqIndex) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let quantizers = [index.coarse().centroids_flat(), index.pq().codebooks_flat()];
        for x in quantizers.into_iter().flatten() {
            eat(&x.to_bits().to_le_bytes());
        }
        for list in index.lists() {
            for id in list.ids() {
                eat(&id.to_le_bytes());
            }
            eat(list.packed_codes());
        }
        hash
    }

    /// "Same index" as a number. The first two fingerprints were taken with
    /// serial loops and one `l2_squared` per centroid, before training
    /// moved onto scoped threads; the third with a row-major distance
    /// kernel, before assignment and encode moved onto the column kernel.
    /// One worker, several workers and the machine's own count must all
    /// reproduce them, on either backend. The second and third shapes train
    /// on a sample, so they also pin the sampler's draw sequence; all three
    /// train on and add more rows than one 256-row block, so at 2 and 5
    /// workers the coarse Lloyd step, the residual assignment and `add` fan
    /// out, while each PQ sub-quantizer's k-means stays on its worker. The third is the serving width —
    /// 128-d, `m` 16, so `dsub` 8 — with an `nlist` of one 32-row column
    /// block plus a 5-row tail; the first two have `dsub` 4.
    #[test]
    fn training_fingerprint_is_pinned_for_one_worker_and_many() {
        let small = clustered_dataset(900, 16, 8, 1);
        let sampled = clustered_dataset(1200, 32, 10, 4);
        let sampled_params = IvfPqParams::new(12, 8)
            .with_train_size(500)
            .with_coarse_iterations(10);
        let wide = clustered_dataset(600, 128, 12, 7);
        let wide_params = IvfPqParams::new(37, 16)
            .with_train_size(400)
            .with_coarse_iterations(8);
        let train_all = || {
            (
                fingerprint(&IvfPqIndex::train(&small, &IvfPqParams::new(8, 4), 42)),
                fingerprint(&IvfPqIndex::train(&sampled, &sampled_params, 9)),
                fingerprint(&IvfPqIndex::train(&wide, &wide_params, 5)),
            )
        };
        let pinned = (
            0x7b00_2f56_e41f_ae2a_u64,
            0xf0bd_1c9c_95a0_5c3a_u64,
            0x125d_2f54_b370_1c6e_u64,
        );
        assert_eq!(train_all(), pinned, "available_parallelism() workers");
        for workers in [1, 2, 5] {
            assert_eq!(
                crate::par::with_workers(workers, train_all),
                pinned,
                "{workers} worker(s)"
            );
        }
    }
}
