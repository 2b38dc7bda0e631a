//! Skewed query workload generation.
//!
//! The UpANNS evaluation stresses that real query streams are heavily skewed:
//! popular clusters receive up to 500× more queries than unpopular ones
//! (Figure 4a), which is what makes the PIM-aware data placement (Opt1)
//! necessary. This module generates query batches whose *cluster popularity*
//! follows a Zipf distribution over the generative clusters.

use crate::synthetic::SyntheticDataset;
use crate::vector::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Specification of a query workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of queries to generate.
    pub num_queries: usize,
    /// Zipf exponent of cluster popularity (0 = uniform; ≈1.0 reproduces the
    /// several-hundred-fold skew of Figure 4a at reduced scale).
    pub popularity_skew: f64,
    /// Additional perturbation applied to a query relative to the sampled
    /// base vector, as a fraction of the dataset's within-cluster noise.
    pub query_noise: f32,
    /// RNG seed for query sampling.
    pub seed: u64,
    /// Seed of the cluster-popularity ranking. Two workloads with different
    /// `seed`s but the same `popularity_seed` draw different queries from the
    /// *same* popularity distribution — which is how real query streams
    /// behave (the paper: "query patterns typically change ... incrementally").
    /// Change this seed to model a major pattern shift.
    pub popularity_seed: u64,
}

impl WorkloadSpec {
    /// A workload of `num_queries` queries with the default (paper-like) skew.
    pub fn new(num_queries: usize) -> Self {
        Self {
            num_queries,
            popularity_skew: 1.0,
            query_noise: 0.5,
            seed: 0xBEEF,
            popularity_seed: 0x9_0DD,
        }
    }

    /// Overrides the RNG seed (which queries get sampled).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the popularity-ranking seed (which clusters are hot) — use
    /// this to model a major query-pattern shift.
    pub fn with_popularity_seed(mut self, seed: u64) -> Self {
        self.popularity_seed = seed;
        self
    }

    /// Generates a query batch against a synthetic dataset: each query picks a
    /// cluster by Zipf popularity, then perturbs a random member of that
    /// cluster.
    pub fn generate(&self, dataset: &SyntheticDataset) -> QueryBatch {
        assert!(self.num_queries > 0, "workload must contain queries");
        let k = dataset.centers.len();
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // Zipf popularity over clusters; cluster ranks are shuffled so that
        // popularity is independent of both cluster id and cluster size
        // (matching the paper's observation that hot clusters are not simply
        // the big ones). The shuffle uses the dedicated popularity seed so
        // workloads drawn with different sampling seeds share a popularity
        // distribution unless the caller shifts it deliberately.
        let mut pop_rng = SmallRng::seed_from_u64(self.popularity_seed);
        let mut rank_of: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = pop_rng.gen_range(0..=i);
            rank_of.swap(i, j);
        }
        let weights: Vec<f64> = (0..k)
            .map(|c| 1.0 / ((rank_of[c] + 1) as f64).powf(self.popularity_skew))
            .collect();
        let total: f64 = weights.iter().sum();

        // Pre-index members per cluster for sampling.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &c) in dataset.cluster_of.iter().enumerate() {
            members[c].push(i);
        }

        let dim = dataset.vectors.dim();
        let noise = self.query_noise * cluster_noise_estimate(dataset);
        let mut queries = Dataset::with_capacity(dim, self.num_queries);
        let mut target_cluster = Vec::with_capacity(self.num_queries);
        let mut v = vec![0.0f32; dim];

        for _ in 0..self.num_queries {
            // Sample a cluster proportionally to its weight.
            let mut t = rng.gen::<f64>() * total;
            let mut chosen = k - 1;
            for (c, w) in weights.iter().enumerate() {
                t -= w;
                if t <= 0.0 {
                    chosen = c;
                    break;
                }
            }
            // Fall back to the cluster center when a cluster has no members
            // (cannot happen with the default generator, but keeps the API
            // robust for hand-built datasets).
            let base: &[f32] = if members[chosen].is_empty() {
                dataset.centers.vector(chosen)
            } else {
                let m = members[chosen][rng.gen_range(0..members[chosen].len())];
                dataset.vectors.vector(m)
            };
            for (x, b) in v.iter_mut().zip(base) {
                *x = b + rng.gen_range(-1.0f32..1.0) * noise;
            }
            queries.push(&v);
            target_cluster.push(chosen);
        }

        QueryBatch {
            queries,
            target_cluster,
        }
    }
}

/// A generated batch of queries plus the generative cluster each was aimed at.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    /// The query vectors.
    pub queries: Dataset,
    /// The generative cluster each query was sampled from (ground truth for
    /// skew analysis; engines never see this).
    pub target_cluster: Vec<usize>,
}

impl QueryBatch {
    /// Number of queries in the batch.
    pub(crate) fn len(&self) -> usize {
        self.queries.len()
    }
}

/// Identifier of a serving *tenant* — one traffic class among the many a
/// long-running front-end multiplexes (different clients with different
/// arrival rates, parameter mixes, and latency SLOs). The id is an opaque
/// label: it never changes what a query answers, only how the serving layer
/// accounts, admits and batches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant single-tenant streams implicitly belong to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What the serving layer needs to know about one tenant of a generated
/// [`QueryStream`]: its identity, fair-share weight, and latency target.
/// Carried on the stream (see [`QueryStream::tenant_profiles`]) so replay
/// harnesses can configure admission and batching without re-deriving the
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// The tenant this profile describes.
    pub id: TenantId,
    /// Human-readable tenant name for reports ("tight", "batchy", ...).
    pub name: String,
    /// Weighted-fair admission share (relative to the other tenants).
    pub weight: u32,
    /// The tenant's own p99 latency SLO in seconds, if it has one.
    pub slo_p99_s: Option<f64>,
}

/// One tenant's slice of a multi-tenant stream: its own content workload,
/// Poisson rate, repeat fraction and SLO (the wrapped [`StreamSpec`]), plus
/// the serving-layer knobs — fair-share weight and the `(k, nprobe)` option
/// mix its queries cycle through.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The tenant's identity.
    pub id: TenantId,
    /// Report name (defaults to the id's display form).
    pub name: String,
    /// The tenant's own timed workload: rate, repeats, SLO, content skew.
    pub stream: StreamSpec,
    /// Weighted-fair admission share (≥ 1).
    pub weight: u32,
    /// The `(k, nprobe)` pairs the tenant's queries cycle through, in
    /// tenant-local arrival order.
    pub option_mix: Vec<(usize, usize)>,
}

impl TenantSpec {
    /// A tenant with weight 1 and the default `(k=10, nprobe=8)` option mix.
    pub fn new(id: TenantId, stream: StreamSpec) -> Self {
        Self {
            id,
            name: id.to_string(),
            stream,
            weight: 1,
            option_mix: vec![(10, 8)],
        }
    }

    /// Names the tenant in reports.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the weighted-fair admission share.
    ///
    /// # Panics
    /// Panics if the weight is zero (a tenant that may never be admitted).
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "tenant weight must be at least 1");
        self.weight = weight;
        self
    }

    /// Sets the `(k, nprobe)` mix the tenant's queries cycle through.
    ///
    /// # Panics
    /// Panics on an empty mix.
    pub fn with_option_mix(mut self, mix: Vec<(usize, usize)>) -> Self {
        assert!(!mix.is_empty(), "a tenant needs at least one option tier");
        self.option_mix = mix;
        self
    }

    fn profile(&self) -> TenantProfile {
        TenantProfile {
            id: self.id,
            name: self.name.clone(),
            weight: self.weight,
            slo_p99_s: self.stream.slo_p99_s,
        }
    }
}

/// A multi-tenant timed workload: several [`TenantSpec`]s whose independent
/// Poisson streams are merged into one arrival-ordered [`QueryStream`], each
/// query tagged with its tenant ([`QueryStream::tenant_of`]) and carrying the
/// tenant's `(k, nprobe)` plan ([`QueryStream::option_plan`]).
///
/// Each tenant draws its queries with its own seeds, XOR-perturbed by the
/// tenant id so two tenants left at the default seeds still ask different
/// questions; repeats stay tenant-local (a tenant re-asks *its own* popular
/// questions). The merged stream's global
/// [`slo_p99_s`](QueryStream::slo_p99_s) is the **tightest** tenant SLO —
/// the only defensible target for a tenant-blind controller, which is
/// exactly the handicap per-tenant controllers exist to remove.
#[derive(Debug, Clone, Default)]
pub struct MultiTenantSpec {
    /// The tenants, in report order.
    pub tenants: Vec<TenantSpec>,
}

impl MultiTenantSpec {
    /// An empty mix; add tenants with [`with_tenant`](Self::with_tenant).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one tenant.
    ///
    /// # Panics
    /// Panics if the tenant's id is already present.
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        assert!(
            self.tenants.iter().all(|t| t.id != tenant.id),
            "duplicate tenant id {}",
            tenant.id
        );
        self.tenants.push(tenant);
        self
    }

    /// Generates every tenant's timed stream and merges them by arrival
    /// time (ties broken by tenant order, preserving per-tenant FIFO). The
    /// result is fully deterministic.
    ///
    /// # Panics
    /// Panics on an empty mix or mismatched query dimensions.
    pub fn generate(&self, dataset: &SyntheticDataset) -> QueryStream {
        assert!(!self.tenants.is_empty(), "a tenant mix needs tenants");
        let per_tenant: Vec<QueryStream> = self
            .tenants
            .iter()
            .map(|t| {
                // Perturb both seeds by the tenant id so tenants sharing the
                // default spec still draw distinct queries and arrival gaps.
                let mut spec = t.stream.clone();
                let salt = 0x7EA0_0001u64.wrapping_mul(u64::from(t.id.0) + 1);
                spec.workload.seed ^= salt;
                spec.workload.popularity_seed ^= salt.rotate_left(17);
                spec.generate(dataset)
            })
            .collect();

        let dim = per_tenant[0].batch.queries.dim();
        let total: usize = per_tenant.iter().map(|s| s.len()).sum();
        let mut queries = Dataset::with_capacity(dim, total);
        let mut target_cluster = Vec::with_capacity(total);
        let mut arrivals = Vec::with_capacity(total);
        let mut tenant_of = Vec::with_capacity(total);
        let mut option_plan = Vec::with_capacity(total);

        // K-way merge by arrival time; `next[i]` is tenant i's cursor.
        let mut next = vec![0usize; per_tenant.len()];
        for _ in 0..total {
            let (i, _) = per_tenant
                .iter()
                .enumerate()
                .filter(|(i, s)| next[*i] < s.len())
                .map(|(i, s)| (i, s.arrivals[next[i]]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("cursors not exhausted");
            let spec = &self.tenants[i];
            let stream = &per_tenant[i];
            let local = next[i];
            arrivals.push(stream.arrivals[local]);
            queries.push(stream.batch.queries.vector(local));
            target_cluster.push(stream.batch.target_cluster[local]);
            tenant_of.push(spec.id);
            option_plan.push(spec.option_mix[local % spec.option_mix.len()]);
            next[i] += 1;
        }

        QueryStream {
            arrivals,
            batch: QueryBatch {
                queries,
                target_cluster,
            },
            slo_p99_s: self
                .tenants
                .iter()
                .filter_map(|t| t.stream.slo_p99_s)
                .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)),
            tenant_of,
            option_plan,
            tenant_profiles: self.tenants.iter().map(|t| t.profile()).collect(),
        }
    }
}

/// Specification of a *timed* query stream: a [`WorkloadSpec`] plus a Poisson
/// arrival process, as seen by a long-running serving front-end.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The query-content workload (count, skew, seeds).
    pub workload: WorkloadSpec,
    /// Mean offered load in queries/second of simulated time.
    pub mean_qps: f64,
    /// Fraction of queries that are exact repeats of an earlier query in the
    /// stream (RAG/recommendation streams re-ask popular questions, which is
    /// what makes serving-layer result caches effective).
    pub repeat_fraction: f64,
    /// Optional p99 latency SLO (seconds) this stream's traffic expects from
    /// the serving layer. The serving front-end reads it to report SLO
    /// attainment and to target its adaptive batching controller; engines
    /// never see it.
    pub slo_p99_s: Option<f64>,
}

impl StreamSpec {
    /// A stream of `num_queries` paper-like skewed queries arriving at
    /// `mean_qps` on average.
    pub fn new(num_queries: usize, mean_qps: f64) -> Self {
        assert!(
            mean_qps > 0.0 && mean_qps.is_finite(),
            "offered load must be positive"
        );
        Self {
            workload: WorkloadSpec::new(num_queries),
            mean_qps,
            repeat_fraction: 0.0,
            slo_p99_s: None,
        }
    }

    /// Overrides the underlying content workload.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the fraction of queries that exactly repeat an earlier one.
    pub fn with_repeat_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.repeat_fraction = fraction;
        self
    }

    /// Attaches a p99 latency SLO (seconds) to the stream's traffic.
    ///
    /// # Panics
    /// Panics unless the target is a positive, finite time.
    pub fn with_slo_p99(mut self, seconds: f64) -> Self {
        assert!(
            seconds > 0.0 && seconds.is_finite(),
            "the SLO must be a positive time"
        );
        self.slo_p99_s = Some(seconds);
        self
    }

    /// Generates the stream: queries from the content workload, arrival
    /// times from exponential inter-arrival gaps (a Poisson process) drawn
    /// with the workload's seed, so the stream is fully deterministic.
    pub fn generate(&self, dataset: &SyntheticDataset) -> QueryStream {
        let mut batch = self.workload.generate(dataset);
        let mut rng = SmallRng::seed_from_u64(self.workload.seed ^ 0x5712_EA11);
        if self.repeat_fraction > 0.0 {
            for i in 1..batch.len() {
                if rng.gen::<f64>() < self.repeat_fraction {
                    let j = rng.gen_range(0..i);
                    let earlier = batch.queries.vector(j).to_vec();
                    batch.queries.vector_mut(i).copy_from_slice(&earlier);
                    batch.target_cluster[i] = batch.target_cluster[j];
                }
            }
        }
        let mut arrivals = Vec::with_capacity(batch.len());
        let mut t = 0.0f64;
        for _ in 0..batch.len() {
            // Inverse-CDF sample of Exp(mean_qps); 1-u keeps ln's argument
            // positive.
            let u: f64 = rng.gen::<f64>();
            t += -(1.0 - u).ln() / self.mean_qps;
            arrivals.push(t);
        }
        let n = batch.len();
        QueryStream {
            arrivals,
            batch,
            slo_p99_s: self.slo_p99_s,
            tenant_of: vec![TenantId::DEFAULT; n],
            option_plan: Vec::new(),
            tenant_profiles: vec![TenantProfile {
                id: TenantId::DEFAULT,
                name: "default".to_string(),
                weight: 1,
                slo_p99_s: self.slo_p99_s,
            }],
        }
    }
}

/// A query batch annotated with per-query arrival times (seconds since the
/// stream started, non-decreasing) — the replay input of a serving layer.
#[derive(Debug, Clone)]
pub struct QueryStream {
    /// Arrival time of each query, aligned with `batch`.
    pub arrivals: Vec<f64>,
    /// The queries themselves (plus generative ground truth).
    pub batch: QueryBatch,
    /// The p99 latency SLO the stream's traffic expects, if any (from
    /// [`StreamSpec::with_slo_p99`]; the *tightest* tenant SLO for a
    /// [`MultiTenantSpec`] stream).
    pub slo_p99_s: Option<f64>,
    /// The tenant each query belongs to, aligned with `arrivals`
    /// ([`TenantId::DEFAULT`] throughout for single-tenant streams).
    pub tenant_of: Vec<TenantId>,
    /// Per-query `(k, nprobe)` plan from the tenants' option mixes, aligned
    /// with `arrivals`. Empty for single-tenant streams, whose replay
    /// harness chooses options itself.
    pub option_plan: Vec<(usize, usize)>,
    /// One profile per tenant, in spec order (a single `default` profile for
    /// single-tenant streams).
    pub tenant_profiles: Vec<TenantProfile>,
}

impl QueryStream {
    /// Number of queries in the stream.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Time of the last arrival (0 for an empty stream).
    pub fn duration(&self) -> f64 {
        self.arrivals.last().copied().unwrap_or(0.0)
    }

    /// Realized offered load in queries/second (0 for degenerate streams).
    pub fn offered_qps(&self) -> f64 {
        if self.duration() <= 0.0 {
            0.0
        } else {
            self.len() as f64 / self.duration()
        }
    }

    /// Iterates `(arrival_seconds, query_index)` in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.arrivals.iter().copied().zip(0..self.len())
    }

    /// The tenant of query `index` ([`TenantId::DEFAULT`] when the stream
    /// carries no tenant tags).
    pub fn tenant(&self, index: usize) -> TenantId {
        self.tenant_of
            .get(index)
            .copied()
            .unwrap_or(TenantId::DEFAULT)
    }

    /// The profile of `tenant`, if the stream knows it.
    pub fn profile(&self, tenant: TenantId) -> Option<&TenantProfile> {
        self.tenant_profiles.iter().find(|p| p.id == tenant)
    }
}

/// One mutation operation against the live index.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    /// Insert-or-replace `id` with `vector`.
    Upsert {
        /// The row id to insert or replace.
        id: u64,
        /// The vector content.
        vector: Vec<f32>,
    },
    /// Remove `id` (a no-op if it is not indexed).
    Delete {
        /// The row id to remove.
        id: u64,
    },
}

/// One timed mutation event of a [`MutationStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct MutationEvent {
    /// Arrival time on the replay clock (seconds).
    pub at: f64,
    /// The tenant whose corpus mutates.
    pub tenant: TenantId,
    /// The operation.
    pub op: MutationOp,
}

/// One tenant's mutation rates within a [`MutationSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMutationSpec {
    /// The mutating tenant.
    pub tenant: TenantId,
    /// Mean upsert rate (operations/second of simulated time).
    pub upsert_qps: f64,
    /// Mean delete rate (operations/second of simulated time).
    pub delete_qps: f64,
}

/// Specification of a deterministic mutation stream: per-tenant Poisson
/// upsert/delete rates over a fixed horizon, interleaved arrival-ordered
/// with the query stream by the serving layer.
///
/// Generation is a pure function of the spec, the dataset and the base
/// corpus size, so the replay and the threaded twin apply the exact same
/// mutations at the exact same simulated times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationSpec {
    /// Per-tenant rates, in report order.
    pub tenants: Vec<TenantMutationSpec>,
    /// Horizon in simulated seconds (events beyond it are not generated).
    pub duration_s: f64,
    /// RNG seed for arrival gaps, id choices and vector perturbation.
    pub seed: u64,
}

impl MutationSpec {
    /// An empty spec over `duration_s` seconds with the default seed.
    pub fn new(duration_s: f64) -> Self {
        assert!(
            duration_s >= 0.0 && duration_s.is_finite(),
            "mutation horizon must be a non-negative time"
        );
        Self {
            tenants: Vec::new(),
            duration_s,
            seed: 0x11FE_57A6,
        }
    }

    /// Adds one tenant's upsert/delete rates.
    ///
    /// # Panics
    /// Panics on negative or non-finite rates, or a duplicate tenant.
    pub fn with_tenant(mut self, tenant: TenantId, upsert_qps: f64, delete_qps: f64) -> Self {
        assert!(
            upsert_qps >= 0.0
                && upsert_qps.is_finite()
                && delete_qps >= 0.0
                && delete_qps.is_finite(),
            "mutation rates must be non-negative and finite"
        );
        assert!(
            self.tenants.iter().all(|t| t.tenant != tenant),
            "duplicate mutating tenant {tenant}"
        );
        self.tenants.push(TenantMutationSpec {
            tenant,
            upsert_qps,
            delete_qps,
        });
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the arrival-ordered event stream against `dataset`, whose
    /// first `base_ntotal` row ids form the initially live corpus. Upserted
    /// vectors are seeded perturbations of existing dataset vectors; fresh
    /// ids are assigned from `base_ntotal` upward; deletes target a random
    /// currently-live id, so the stream is always applicable in order.
    pub fn generate(&self, dataset: &SyntheticDataset, base_ntotal: u64) -> MutationStream {
        // Live ids in deterministic insertion order; deletes swap-remove a
        // seeded random position. Shared across tenants (the corpus is one
        // index), so event generation must advance in *global* arrival
        // order — otherwise one tenant could delete an id another tenant
        // only upserts later on the clock.
        let mut live: Vec<u64> = (0..base_ntotal).collect();
        let mut next_id = base_ntotal;
        let noise = 0.5 * cluster_noise_estimate(dataset);
        let dim = dataset.vectors.dim();

        struct Cursor {
            tenant: TenantId,
            upsert_qps: f64,
            rate: f64,
            rng: SmallRng,
            next_at: f64,
        }
        let mut cursors: Vec<Cursor> = Vec::new();
        for t in &self.tenants {
            let rate = t.upsert_qps + t.delete_qps;
            if rate <= 0.0 {
                continue;
            }
            let salt = 0x9B5E_0007u64.wrapping_mul(u64::from(t.tenant.0) + 1);
            let mut rng = SmallRng::seed_from_u64(self.seed ^ salt);
            let u: f64 = rng.gen::<f64>();
            let next_at = -(1.0 - u).ln() / rate;
            cursors.push(Cursor {
                tenant: t.tenant,
                upsert_qps: t.upsert_qps,
                rate,
                rng,
                next_at,
            });
        }

        let mut events = Vec::new();
        // The tenant with the earliest pending event goes next (ties break
        // toward spec order — deterministic).
        while let Some(ci) = cursors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.next_at <= self.duration_s)
            .min_by(|a, b| {
                a.1.next_at
                    .partial_cmp(&b.1.next_at)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
        {
            let c = &mut cursors[ci];
            let at = c.next_at;
            let is_upsert = c.rng.gen::<f64>() * c.rate < c.upsert_qps;
            let op = if is_upsert {
                let base = c.rng.gen_range(0..dataset.vectors.len());
                let mut v = dataset.vectors.vector(base).to_vec();
                for x in v.iter_mut().take(dim) {
                    *x += c.rng.gen_range(-1.0f32..1.0) * noise;
                }
                let id = next_id;
                next_id += 1;
                live.push(id);
                Some(MutationOp::Upsert { id, vector: v })
            } else if live.is_empty() {
                None
            } else {
                let pos = c.rng.gen_range(0..live.len());
                let id = live.swap_remove(pos);
                Some(MutationOp::Delete { id })
            };
            if let Some(op) = op {
                events.push(MutationEvent {
                    at,
                    tenant: c.tenant,
                    op,
                });
            }
            let u: f64 = c.rng.gen::<f64>();
            c.next_at = at + -(1.0 - u).ln() / c.rate;
        }
        MutationStream { events }
    }
}

/// An arrival-ordered stream of mutation events (see [`MutationSpec`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationStream {
    /// The events, sorted by arrival time.
    pub events: Vec<MutationEvent>,
}

impl MutationStream {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of upsert events.
    pub fn upserts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.op, MutationOp::Upsert { .. }))
            .count()
    }

    /// Number of delete events.
    pub fn deletes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.op, MutationOp::Delete { .. }))
            .count()
    }
}

/// Rough estimate of within-cluster spread used to scale query perturbation.
fn cluster_noise_estimate(dataset: &SyntheticDataset) -> f32 {
    // Use the average absolute deviation of a small sample of vectors from
    // their cluster center.
    let sample = dataset.vectors.len().min(200);
    if sample == 0 {
        return 1.0;
    }
    let dim = dataset.vectors.dim();
    let mut total = 0.0f64;
    for i in 0..sample {
        let c = dataset.cluster_of[i];
        let v = dataset.vectors.vector(i);
        let center = dataset.centers.vector(c);
        let dev: f32 = v
            .iter()
            .zip(center)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / dim as f32;
        total += dev as f64;
    }
    (total / sample as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;

    fn dataset() -> SyntheticDataset {
        SyntheticSpec::sift_like(1200)
            .with_clusters(24)
            .with_seed(2)
            .generate_with_meta()
    }

    #[test]
    fn generates_requested_queries() {
        let ds = dataset();
        let batch = WorkloadSpec::new(300).with_seed(1).generate(&ds);
        assert_eq!(batch.len(), 300);
        assert_eq!(batch.queries.dim(), 128);
        assert_eq!(batch.target_cluster.len(), 300);
    }

    #[test]
    fn skewed_workload_is_more_imbalanced_than_uniform() {
        let ds = dataset();
        let spec = |popularity_skew| WorkloadSpec {
            popularity_skew,
            ..WorkloadSpec::new(2000)
        };
        let skewed = spec(1.2).with_seed(3).generate(&ds);
        let uniform = spec(0.0).with_seed(3).generate(&ds);
        let ratio = |batch: &QueryBatch| {
            let mut freq = [0usize; 24];
            for &c in &batch.target_cluster {
                freq[c] += 1;
            }
            let max = freq.iter().copied().max().unwrap_or(0);
            let min = freq.iter().copied().filter(|&f| f > 0).min().unwrap_or(1);
            max as f64 / min as f64
        };
        assert!(
            ratio(&skewed) > 3.0 * ratio(&uniform).max(1.0),
            "skewed {} vs uniform {}",
            ratio(&skewed),
            ratio(&uniform)
        );
    }

    #[test]
    fn query_stream_arrivals_are_sorted_and_match_rate() {
        let ds = dataset();
        let stream = StreamSpec::new(800, 2_000.0).generate(&ds);
        assert_eq!(stream.len(), 800);
        assert!(!stream.is_empty());
        assert!(
            stream.arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be non-decreasing"
        );
        // Realized rate is within ±25 % of the offered rate at this length.
        let rate = stream.offered_qps();
        assert!(
            (rate - 2_000.0).abs() / 2_000.0 < 0.25,
            "offered {rate} vs requested 2000"
        );
        // Deterministic replay.
        let again = StreamSpec::new(800, 2_000.0).generate(&ds);
        assert_eq!(stream.arrivals, again.arrivals);
        assert_eq!(stream.batch.queries, again.batch.queries);
        // Iterator order matches arrival order.
        let pairs: Vec<(f64, usize)> = stream.iter().take(3).collect();
        assert_eq!(pairs[0].1, 0);
        assert_eq!(pairs[2].1, 2);
    }

    #[test]
    fn query_stream_repeat_fraction_duplicates_earlier_queries() {
        let ds = dataset();
        let duplicates = |s: &QueryStream| {
            (1..s.len())
                .filter(|&i| (0..i).any(|j| s.batch.queries.vector(i) == s.batch.queries.vector(j)))
                .count()
        };
        let repeated = StreamSpec::new(300, 1_000.0)
            .with_repeat_fraction(0.5)
            .generate(&ds);
        let fresh = StreamSpec::new(300, 1_000.0).generate(&ds);
        assert!(duplicates(&repeated) > 80, "expected many repeats");
        assert_eq!(duplicates(&fresh), 0, "default stream has no exact repeats");
    }

    #[test]
    fn stream_carries_its_slo_target() {
        let ds = dataset();
        let plain = StreamSpec::new(50, 1_000.0).generate(&ds);
        assert_eq!(plain.slo_p99_s, None);
        let tight = StreamSpec::new(50, 1_000.0)
            .with_slo_p99(0.25)
            .generate(&ds);
        assert_eq!(tight.slo_p99_s, Some(0.25));
        // The SLO annotation never changes the traffic itself.
        assert_eq!(plain.arrivals, tight.arrivals);
        assert_eq!(plain.batch.queries, tight.batch.queries);
    }

    #[test]
    #[should_panic(expected = "positive time")]
    fn non_positive_slo_is_rejected() {
        let _ = StreamSpec::new(10, 100.0).with_slo_p99(-1.0);
    }

    #[test]
    fn multi_tenant_stream_merges_and_tags_by_arrival() {
        let ds = dataset();
        let spec = MultiTenantSpec::new()
            .with_tenant(
                TenantSpec::new(TenantId(1), StreamSpec::new(120, 500.0).with_slo_p99(0.5))
                    .with_name("tight")
                    .with_weight(3)
                    .with_option_mix(vec![(10, 8)]),
            )
            .with_tenant(
                TenantSpec::new(TenantId(2), StreamSpec::new(300, 2_000.0).with_slo_p99(5.0))
                    .with_name("batchy")
                    .with_option_mix(vec![(10, 4), (20, 8)]),
            );
        let stream = spec.generate(&ds);
        assert_eq!(stream.len(), 420);
        assert_eq!(stream.tenant_of.len(), 420);
        assert_eq!(stream.option_plan.len(), 420);
        assert!(stream.arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Per-tenant counts and FIFO order survive the merge.
        let count_of = |t| stream.tenant_of.iter().filter(|&&x| x == t).count();
        assert_eq!(count_of(TenantId(1)), 120);
        assert_eq!(count_of(TenantId(2)), 300);
        let t2_arrivals: Vec<f64> = stream
            .iter()
            .filter(|&(_, i)| stream.tenant(i) == TenantId(2))
            .map(|(a, _)| a)
            .collect();
        assert!(t2_arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Option plans cycle each tenant's own mix in tenant-local order.
        let t2_plans: Vec<(usize, usize)> = (0..stream.len())
            .filter(|&i| stream.tenant(i) == TenantId(2))
            .map(|i| stream.option_plan[i])
            .collect();
        assert_eq!(t2_plans[0], (10, 4));
        assert_eq!(t2_plans[1], (20, 8));
        assert_eq!(t2_plans[2], (10, 4));
        // Profiles carry names, weights and SLOs; the global SLO is the
        // tightest tenant's.
        let p1 = stream.profile(TenantId(1)).expect("profile");
        assert_eq!(
            (p1.name.as_str(), p1.weight, p1.slo_p99_s),
            ("tight", 3, Some(0.5))
        );
        assert_eq!(stream.slo_p99_s, Some(0.5));
        // Deterministic replay.
        let again = spec.generate(&ds);
        assert_eq!(stream.arrivals, again.arrivals);
        assert_eq!(stream.tenant_of, again.tenant_of);
        assert_eq!(stream.batch.queries, again.batch.queries);
        // Tenants sharing the default seeds still ask different questions.
        assert_ne!(stream.batch.queries.vector(0).to_vec(), {
            let i = (0..stream.len())
                .find(|&i| stream.tenant(i) != stream.tenant(0))
                .expect("two tenants present");
            stream.batch.queries.vector(i).to_vec()
        });
    }

    #[test]
    fn single_tenant_stream_carries_a_default_profile() {
        let ds = dataset();
        let stream = StreamSpec::new(40, 1_000.0).with_slo_p99(2.0).generate(&ds);
        assert!(stream.tenant_of.iter().all(|&t| t == TenantId::DEFAULT));
        assert!(stream.option_plan.is_empty());
        assert_eq!(stream.tenant_profiles.len(), 1);
        let p = stream.profile(TenantId::DEFAULT).expect("default profile");
        assert_eq!((p.weight, p.slo_p99_s), (1, Some(2.0)));
        assert_eq!(stream.tenant(7), TenantId::DEFAULT);
        assert_eq!(
            stream.tenant(10_000),
            TenantId::DEFAULT,
            "out of range is default"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn duplicate_tenant_ids_are_rejected() {
        let _ = MultiTenantSpec::new()
            .with_tenant(TenantSpec::new(TenantId(1), StreamSpec::new(10, 100.0)))
            .with_tenant(TenantSpec::new(TenantId(1), StreamSpec::new(10, 100.0)));
    }

    #[test]
    fn mutation_stream_is_deterministic_ordered_and_applicable() {
        let ds = dataset();
        let spec = MutationSpec::new(30.0)
            .with_tenant(TenantId(1), 4.0, 1.0)
            .with_tenant(TenantId(2), 0.5, 0.5)
            .with_seed(77);
        let stream = spec.generate(&ds, 1200);
        assert!(!stream.is_empty());
        assert!(stream.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(stream.events.iter().all(|e| e.at <= 30.0));
        assert_eq!(stream.upserts() + stream.deletes(), stream.len());
        // Tenant 1 mutates ~5×/s, tenant 2 ~1×/s: the split shows it.
        let t1 = stream
            .events
            .iter()
            .filter(|e| e.tenant == TenantId(1))
            .count();
        let t2 = stream
            .events
            .iter()
            .filter(|e| e.tenant == TenantId(2))
            .count();
        assert!(t1 > 2 * t2, "t1 {t1} vs t2 {t2}");
        // Fresh ids start at the base corpus size; deletes only target ids
        // that are live at that point in the stream.
        let mut live: std::collections::HashSet<u64> = (0..1200u64).collect();
        for e in &stream.events {
            match &e.op {
                MutationOp::Upsert { id, vector } => {
                    assert!(*id >= 1200);
                    assert_eq!(vector.len(), 128);
                    live.insert(*id);
                }
                MutationOp::Delete { id } => {
                    assert!(live.remove(id), "delete of dead id {id}");
                }
            }
        }
        // Deterministic replay.
        assert_eq!(stream, spec.generate(&ds, 1200));
        // The empty spec generates nothing.
        assert!(MutationSpec::new(30.0).generate(&ds, 1200).is_empty());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = dataset();
        let a = WorkloadSpec::new(100).with_seed(11).generate(&ds);
        let b = WorkloadSpec::new(100).with_seed(11).generate(&ds);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.target_cluster, b.target_cluster);
    }
}
