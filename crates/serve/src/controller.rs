//! SLO-driven control of the dynamic batch former.
//!
//! The serving numbers expose the paper's central batching argument: PIM
//! throughput collapses at small batch sizes (per-(query,cluster) granules
//! don't amortize the DPU transfer legs), while a large *fixed* batch window
//! punishes every query with the full waiting delay whether the stream needs
//! it or not. The right batch window is therefore a function of the latency
//! target, not a constant — which is what a closed-loop controller computes.
//!
//! [`BatchPolicy`] is the seam: the [`SearchService`](crate::service)
//! consults the policy for the former's close conditions before every
//! arrival and feeds every completion latency back. Two implementations:
//!
//! * [`FixedPolicy`] — the static [`BatchFormerConfig`] of the original
//!   service, now expressed as the trivial controller.
//! * [`SloController`] — a two-regime AIMD loop on the replay clock: every
//!   `adjust_interval_s` of simulated time it compares the window's observed
//!   p99 against the SLO. A miss has two distinct causes with *opposite*
//!   fixes, which the controller separates with the engine-backlog signal:
//!   when closed batches sit waiting for a saturated engine, the batches are
//!   too *small* to amortize the per-batch PIM overheads, so the controller
//!   widens the window multiplicatively (more amortization ⇒ more capacity);
//!   when the engine is keeping up, the batching window itself is the
//!   latency, so it shrinks multiplicatively. Comfortably below the SLO it
//!   grows additively, harvesting batch amortization without overshooting.

//!
//! With multiple tenants in one stream, a single window — however adaptive —
//! must serve the tightest SLO in the mix, giving up the amortization the
//! loose-SLO traffic would happily trade latency for. [`ControllerBank`]
//! removes that coupling: one [`SloController`] per tenant, each steering its
//! own batching window from its own completions only (the former keeps
//! tenant-pure groups, so the routing is exact).

use crate::batcher::BatchFormerConfig;
use annkit::workload::TenantProfile;
use baselines::engine::TenantId;

/// A (possibly adaptive) source of batch-former close conditions.
///
/// The service calls [`current`](Self::current) before admitting each
/// arrival, [`observe_batch`](Self::observe_batch) when a batch is handed to
/// the engine, and [`observe`](Self::observe) once per completed query — all
/// on the simulated clock, so a policy sees exactly the feedback a real
/// controller would. The `*_for` variants route the same calls per tenant;
/// tenant-blind policies inherit defaults that fold them into the global
/// ones.
///
/// Implementing a custom policy takes three methods:
///
/// ```
/// use upanns_serve::batcher::BatchFormerConfig;
/// use upanns_serve::controller::BatchPolicy;
///
/// /// Doubles the batch cap every time a completion is observed.
/// struct Doubling(BatchFormerConfig, usize);
///
/// impl BatchPolicy for Doubling {
///     fn name(&self) -> &str {
///         "doubling"
///     }
///     fn current(&self) -> BatchFormerConfig {
///         self.0
///     }
///     fn observe(&mut self, _now: f64, _latency_s: f64) {
///         self.0.max_batch *= 2;
///         self.1 += 1;
///     }
///     fn adjustments(&self) -> usize {
///         self.1
///     }
/// }
///
/// let mut policy = Doubling(BatchFormerConfig { max_batch: 8, max_delay_s: 1e-3 }, 0);
/// policy.observe(0.5, 2e-3);
/// assert_eq!(policy.current().max_batch, 16);
/// assert_eq!(policy.adjustments(), 1);
/// // Tenant-routed feedback folds into the global hooks by default:
/// use baselines::engine::TenantId;
/// policy.observe_for(TenantId(3), 0.6, 2e-3);
/// assert_eq!(policy.current().max_batch, 32);
/// ```
///
/// Policies are `Send`: the threaded runtime
/// (`upanns-runtime`) moves the boxed policy into its batch-former stage
/// thread, which owns it exclusively for the life of the pipeline. All
/// shipped policies are plain data, so the bound costs nothing.
pub trait BatchPolicy: Send {
    /// Display name of the policy ("fixed", "adaptive-slo", ...).
    fn name(&self) -> &str;

    /// The close conditions the former should use right now.
    fn current(&self) -> BatchFormerConfig;

    /// Feedback: one query completed at simulated time `now` with end-to-end
    /// latency `latency_s`. Default: ignore (static policies).
    fn observe(&mut self, now: f64, latency_s: f64) {
        let _ = (now, latency_s);
    }

    /// Feedback: a closed batch of `batch_len` queries finished at `now`
    /// after spending `engine_wait_s` queued behind a busy engine before it
    /// could start. A persistently large wait relative to the batching window
    /// means the engine — not the window — is the bottleneck. Default:
    /// ignore.
    fn observe_batch(&mut self, now: f64, batch_len: usize, engine_wait_s: f64) {
        let _ = (now, batch_len, engine_wait_s);
    }

    /// How many times the policy changed its answer so far (0 for static
    /// policies).
    fn adjustments(&self) -> usize {
        0
    }

    /// The close conditions `tenant`'s groups should use right now.
    /// Tenant-blind policies (the default) answer with the global
    /// [`current`](Self::current).
    fn current_for(&self, tenant: TenantId) -> BatchFormerConfig {
        let _ = tenant;
        self.current()
    }

    /// Tenant-routed completion feedback. Tenant-blind policies fold it into
    /// the global [`observe`](Self::observe).
    fn observe_for(&mut self, tenant: TenantId, now: f64, latency_s: f64) {
        let _ = tenant;
        self.observe(now, latency_s);
    }

    /// Tenant-routed batch feedback (formed batches are tenant-pure, so a
    /// batch's engine wait belongs to exactly one tenant). Tenant-blind
    /// policies fold it into the global
    /// [`observe_batch`](Self::observe_batch).
    fn observe_batch_for(
        &mut self,
        tenant: TenantId,
        now: f64,
        batch_len: usize,
        engine_wait_s: f64,
    ) {
        let _ = tenant;
        self.observe_batch(now, batch_len, engine_wait_s);
    }

    /// The dispatch chunk cap the policy steers, if any — how many queries
    /// of one batch the [`ChunkQueue`](crate::dispatch::ChunkQueue) may
    /// commit an engine to per dispatch. `None` (the default, and
    /// every static policy's answer) defers to the service-level cap
    /// ([`ServiceConfig::max_chunk`](crate::service::ServiceConfig)). The
    /// service clamps the answer to that cap: a policy may trade amortization
    /// *below* the operator's isolation bound, never above it.
    fn chunk(&self) -> Option<usize> {
        None
    }

    /// The chunk cap `tenant`'s batches should be split at right now.
    /// Tenant-blind policies answer with the global [`chunk`](Self::chunk).
    fn chunk_for(&self, tenant: TenantId) -> Option<usize> {
        let _ = tenant;
        self.chunk()
    }
}

/// The static policy: always the same close conditions.
#[derive(Debug, Clone, Copy)]
pub struct FixedPolicy(pub BatchFormerConfig);

impl BatchPolicy for FixedPolicy {
    fn name(&self) -> &str {
        "fixed"
    }

    fn current(&self) -> BatchFormerConfig {
        self.0
    }
}

/// Tuning knobs of the [`SloController`].
#[derive(Debug, Clone, Copy)]
pub struct SloControllerConfig {
    /// The p99 latency target in simulated seconds.
    pub slo_p99_s: f64,
    /// Simulated seconds between control decisions.
    pub adjust_interval_s: f64,
    /// Bounds on the batching window the controller may choose.
    pub min_delay_s: f64,
    /// Upper bound on the batching window.
    pub max_delay_s: f64,
    /// Bounds on the batch-size cap the controller may choose.
    pub min_batch: usize,
    /// Upper bound on the batch-size cap.
    pub max_batch: usize,
    /// Multiplicative back-off applied when the window's p99 exceeds the SLO
    /// while the engine is keeping up (in `(0, 1)`).
    pub decrease_factor: f64,
    /// Multiplicative window growth applied when the p99 exceeds the SLO
    /// *because the engine is saturated* — wider windows mean bigger batches,
    /// which is what raises a PIM engine's capacity (must be > 1).
    pub saturated_growth: f64,
    /// Additive window growth (seconds) applied when p99 is below
    /// `grow_below` × SLO.
    pub increase_delay_s: f64,
    /// Additive batch-cap growth applied together with the window growth.
    pub increase_batch: usize,
    /// Fraction of the SLO below which the controller considers itself safe
    /// to grow (the AIMD guard band; in `(0, 1)`).
    pub grow_below: f64,
    /// The engine counts as saturated when the average time closed batches
    /// spend queued behind it exceeds this multiple of the current window.
    pub saturation_wait_ratio: f64,
    /// Bounds on the dispatch chunk cap the controller may choose. The
    /// chunk is steered like the window (saturated misses grow it — bigger
    /// chunks amortize the per-dispatch overheads — unsaturated misses
    /// shrink it, comfort grows it additively), so `max_chunk` is the most
    /// head-of-line delay this tenant may ever inflict per dispatch.
    pub min_chunk: usize,
    /// Upper bound on the dispatch chunk cap.
    pub max_chunk: usize,
    /// Additive chunk growth applied together with the window growth.
    pub increase_chunk: usize,
}

impl SloControllerConfig {
    /// Defaults for a given p99 target: decisions every SLO interval, window
    /// bounded by `[slo/100, slo/2]`, batches in `[1, 1024]`, halve on miss,
    /// grow by `slo/50` while under 70 % of the SLO.
    pub fn for_slo(slo_p99_s: f64) -> Self {
        assert!(
            slo_p99_s > 0.0 && slo_p99_s.is_finite(),
            "the SLO must be a positive time"
        );
        Self {
            slo_p99_s,
            adjust_interval_s: slo_p99_s,
            min_delay_s: slo_p99_s / 100.0,
            max_delay_s: slo_p99_s / 2.0,
            min_batch: 1,
            max_batch: 1024,
            decrease_factor: 0.5,
            saturated_growth: 2.0,
            increase_delay_s: slo_p99_s / 50.0,
            increase_batch: 32,
            grow_below: 0.7,
            saturation_wait_ratio: 1.0,
            min_chunk: 8,
            max_chunk: 64,
            increase_chunk: 8,
        }
    }
}

/// Closed-loop AIMD controller steering the batch former toward the largest
/// batching window whose observed p99 still meets the SLO.
///
/// ```
/// use upanns_serve::controller::{BatchPolicy, SloController};
///
/// // Target p99 = 100 ms; the controller starts from the SLO-derived
/// // prior (window = SLO/4) and decides once per SLO interval.
/// let mut controller = SloController::for_slo(0.1);
/// let before = controller.current();
///
/// // One full decision interval of latencies at 10× the SLO while the
/// // engine keeps up (no batch-wait feedback): the window itself must be
/// // the latency, so the controller backs off multiplicatively.
/// for i in 0..50 {
///     controller.observe(0.002 * i as f64, 1.0);
/// }
/// controller.observe(0.2, 1.0); // crosses the decision boundary
///
/// assert_eq!(controller.adjustments(), 1);
/// assert!(controller.current().max_delay_s <= before.max_delay_s / 2.0 + 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SloController {
    config: SloControllerConfig,
    current: BatchFormerConfig,
    /// The dispatch chunk cap, steered alongside the window.
    chunk: usize,
    /// Latencies observed since the last control decision.
    window: Vec<f64>,
    /// Engine-queue waits of batches dispatched since the last decision.
    waits: Vec<f64>,
    next_decision_at: f64,
    adjustments: usize,
}

impl SloController {
    /// A controller starting from `initial` close conditions.
    ///
    /// # Panics
    /// Panics if the config's bounds are empty or its factors are out of
    /// range.
    pub fn new(config: SloControllerConfig, initial: BatchFormerConfig) -> Self {
        assert!(
            config.min_delay_s >= 0.0 && config.min_delay_s <= config.max_delay_s,
            "empty delay range"
        );
        assert!(
            config.min_batch >= 1 && config.min_batch <= config.max_batch,
            "empty batch range"
        );
        assert!(
            config.decrease_factor > 0.0 && config.decrease_factor < 1.0,
            "decrease factor must be in (0, 1)"
        );
        assert!(
            config.saturated_growth > 1.0 && config.saturated_growth.is_finite(),
            "saturated growth must exceed 1"
        );
        assert!(
            config.saturation_wait_ratio > 0.0 && config.saturation_wait_ratio.is_finite(),
            "saturation wait ratio must be positive"
        );
        assert!(
            config.grow_below > 0.0 && config.grow_below < 1.0,
            "grow threshold must be in (0, 1)"
        );
        assert!(
            config.adjust_interval_s > 0.0 && config.adjust_interval_s.is_finite(),
            "decision interval must be a positive time"
        );
        assert!(
            config.min_chunk >= 1 && config.min_chunk <= config.max_chunk,
            "empty chunk range"
        );
        let current = BatchFormerConfig {
            max_batch: initial.max_batch.clamp(config.min_batch, config.max_batch),
            max_delay_s: initial.max_delay_s.clamp(config.min_delay_s, config.max_delay_s),
        };
        Self {
            config,
            current,
            // Start mid-range: room to amortize up and to isolate down.
            chunk: (config.min_chunk + config.max_chunk) / 2,
            window: Vec::new(),
            waits: Vec::new(),
            next_decision_at: config.adjust_interval_s,
            adjustments: 0,
        }
    }

    /// A controller for the given SLO starting from the SLO-derived prior:
    /// a window of a quarter of the SLO. Starting wide-ish is deliberate —
    /// it is safe for throughput on batch-hungry (PIM) engines, avoids the
    /// cold-start collapse a latency-lean initial window causes there, and
    /// the controller shrinks it in one multiplicative step if the window
    /// itself turns out to be the latency.
    pub fn for_slo(slo_p99_s: f64) -> Self {
        let config = SloControllerConfig::for_slo(slo_p99_s);
        let initial = BatchFormerConfig {
            max_batch: 256,
            max_delay_s: slo_p99_s / 4.0,
        };
        Self::new(config, initial)
    }

    /// The controller's tuning knobs.
    pub fn config(&self) -> &SloControllerConfig {
        &self.config
    }

    /// Nearest-rank p99 of the current observation window (`None` while the
    /// window is empty).
    fn window_p99(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut sorted = self.window.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = (0.99 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// Mean engine-queue wait of the batches dispatched in this window.
    fn window_mean_wait(&self) -> f64 {
        if self.waits.is_empty() {
            0.0
        } else {
            self.waits.iter().sum::<f64>() / self.waits.len() as f64
        }
    }

    /// One control step against the window's p99 and the engine-wait signal.
    /// The dispatch chunk cap moves with the window: every branch that
    /// widens the window also grows the chunk (amortization per dispatch)
    /// and every branch that shrinks it shrinks the chunk too (less serial
    /// commitment while the window itself is the latency).
    fn decide(&mut self) {
        let Some(p99) = self.window_p99() else {
            self.waits.clear();
            return;
        };
        let before = self.current;
        if p99 > self.config.slo_p99_s {
            let saturated = self.window_mean_wait()
                > self.config.saturation_wait_ratio * self.current.max_delay_s;
            if saturated {
                // Batches queue behind a busy engine: the batches are too
                // small to amortize the per-batch overheads, so a narrower
                // window would make the miss *worse*. Widen multiplicatively
                // to escape the collapse quickly.
                self.current.max_delay_s = (self.current.max_delay_s
                    * self.config.saturated_growth)
                    .min(self.config.max_delay_s);
                self.current.max_batch = ((self.current.max_batch as f64
                    * self.config.saturated_growth)
                    .round() as usize)
                    .min(self.config.max_batch);
                self.chunk = ((self.chunk as f64 * self.config.saturated_growth).round()
                    as usize)
                    .min(self.config.max_chunk);
            } else {
                // The engine keeps up; the batching window itself is the
                // latency. Back off multiplicatively — recovers in one step.
                self.current.max_delay_s = (self.current.max_delay_s
                    * self.config.decrease_factor)
                    .max(self.config.min_delay_s);
                self.current.max_batch = ((self.current.max_batch as f64
                    * self.config.decrease_factor)
                    .round() as usize)
                    .max(self.config.min_batch);
                self.chunk = ((self.chunk as f64 * self.config.decrease_factor).round()
                    as usize)
                    .max(self.config.min_chunk);
            }
        } else if p99 < self.config.grow_below * self.config.slo_p99_s {
            // Comfortably under: grow additively — harvest batch
            // amortization gradually without overshooting the SLO.
            self.current.max_delay_s =
                (self.current.max_delay_s + self.config.increase_delay_s).min(self.config.max_delay_s);
            self.current.max_batch =
                (self.current.max_batch + self.config.increase_batch).min(self.config.max_batch);
            self.chunk = (self.chunk + self.config.increase_chunk).min(self.config.max_chunk);
        }
        // Chunk-only moves are not counted: `adjustments` keeps its
        // original meaning (close-condition changes), and the chunk knob is
        // inert when the service runs whole-batch dispatch — a policy
        // cannot know which, so it must not report phantom activity.
        if self.current.max_batch != before.max_batch
            || self.current.max_delay_s != before.max_delay_s
        {
            self.adjustments += 1;
        }
        self.window.clear();
        self.waits.clear();
    }

    /// The dispatch chunk cap the controller currently answers
    /// [`BatchPolicy::chunk`] with.
    pub fn current_chunk(&self) -> usize {
        self.chunk
    }
}

impl BatchPolicy for SloController {
    fn name(&self) -> &str {
        "adaptive-slo"
    }

    fn current(&self) -> BatchFormerConfig {
        self.current
    }

    fn observe(&mut self, now: f64, latency_s: f64) {
        if latency_s.is_finite() && latency_s >= 0.0 {
            self.window.push(latency_s);
        }
        if now >= self.next_decision_at {
            self.decide();
            // Skip idle intervals instead of replaying a decision per elapsed
            // interval: the next decision is one interval after *now*.
            self.next_decision_at = now + self.config.adjust_interval_s;
        }
    }

    fn observe_batch(&mut self, _now: f64, _batch_len: usize, engine_wait_s: f64) {
        if engine_wait_s.is_finite() && engine_wait_s >= 0.0 {
            self.waits.push(engine_wait_s);
        }
    }

    fn adjustments(&self) -> usize {
        self.adjustments
    }

    fn chunk(&self) -> Option<usize> {
        Some(self.chunk)
    }
}

/// One [`SloController`] per tenant: each tenant's batching window is steered
/// by its **own** SLO from its **own** completions, so a tight-SLO tenant's
/// narrow window and a loose-SLO tenant's wide, amortization-harvesting
/// window coexist on one engine. Tenants without a controller (no SLO of
/// their own) run the bank's default close conditions.
#[derive(Debug, Clone, Default)]
pub struct ControllerBank {
    default_config: BatchFormerConfig,
    entries: Vec<(TenantId, SloController)>,
}

impl ControllerBank {
    /// An empty bank whose unknown tenants run `default_config`.
    pub fn new(default_config: BatchFormerConfig) -> Self {
        Self {
            default_config,
            entries: Vec::new(),
        }
    }

    /// Adds (or replaces) `tenant`'s controller.
    pub fn with_controller(mut self, tenant: TenantId, controller: SloController) -> Self {
        match self.entries.iter_mut().find(|(id, _)| *id == tenant) {
            Some((_, c)) => *c = controller,
            None => self.entries.push((tenant, controller)),
        }
        self
    }

    /// Builds a bank from a stream's tenant profiles: every tenant with its
    /// own SLO gets [`SloController::for_slo`]; tenants without one share
    /// `default_config`.
    pub fn for_profiles(profiles: &[TenantProfile], default_config: BatchFormerConfig) -> Self {
        let mut bank = Self::new(default_config);
        for p in profiles {
            if let Some(slo) = p.slo_p99_s {
                bank = bank.with_controller(p.id, SloController::for_slo(slo));
            }
        }
        bank
    }

    /// The controller steering `tenant`, if it has one.
    pub fn controller(&self, tenant: TenantId) -> Option<&SloController> {
        self.entries
            .iter()
            .find(|(id, _)| *id == tenant)
            .map(|(_, c)| c)
    }

    /// Number of per-tenant controllers in the bank.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bank holds no controllers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl BatchPolicy for ControllerBank {
    fn name(&self) -> &str {
        "adaptive-tenant"
    }

    /// The *default* close conditions (tenants without a controller). The
    /// per-tenant answers come from [`current_for`](Self::current_for).
    fn current(&self) -> BatchFormerConfig {
        self.default_config
    }

    fn current_for(&self, tenant: TenantId) -> BatchFormerConfig {
        self.controller(tenant)
            .map_or(self.default_config, |c| c.current())
    }

    /// Tenants with their own controller run its steered chunk cap; the
    /// rest defer to the service-level default.
    fn chunk_for(&self, tenant: TenantId) -> Option<usize> {
        self.controller(tenant).and_then(BatchPolicy::chunk)
    }

    fn observe_for(&mut self, tenant: TenantId, now: f64, latency_s: f64) {
        if let Some((_, c)) = self.entries.iter_mut().find(|(id, _)| *id == tenant) {
            c.observe(now, latency_s);
        }
    }

    fn observe_batch_for(
        &mut self,
        tenant: TenantId,
        now: f64,
        batch_len: usize,
        engine_wait_s: f64,
    ) {
        if let Some((_, c)) = self.entries.iter_mut().find(|(id, _)| *id == tenant) {
            c.observe_batch(now, batch_len, engine_wait_s);
        }
    }

    /// Total adjustments across every tenant's controller.
    fn adjustments(&self) -> usize {
        self.entries.iter().map(|(_, c)| c.adjustments()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(slo: f64) -> SloController {
        SloController::for_slo(slo)
    }

    #[test]
    fn fixed_policy_never_moves() {
        let config = BatchFormerConfig {
            max_batch: 64,
            max_delay_s: 0.01,
        };
        let mut policy = FixedPolicy(config);
        for i in 0..100 {
            policy.observe(i as f64, 10.0); // terrible latencies
        }
        assert_eq!(policy.current().max_batch, 64);
        assert_eq!(policy.current().max_delay_s, 0.01);
        assert_eq!(policy.adjustments(), 0);
        assert_eq!(policy.name(), "fixed");
    }

    #[test]
    fn misses_shrink_the_window_multiplicatively() {
        // Start mid-range so there is room to back off.
        let mut c = SloController::new(
            SloControllerConfig::for_slo(0.1),
            BatchFormerConfig {
                max_batch: 128,
                max_delay_s: 0.04,
            },
        );
        let delay0 = c.current().max_delay_s;
        let batch0 = c.current().max_batch;
        // One full interval of latencies far above the SLO.
        for i in 0..50 {
            c.observe(0.002 * i as f64, 1.0);
        }
        c.observe(0.2, 1.0); // crosses the decision boundary
        assert!(c.current().max_delay_s <= delay0 * 0.5 + 1e-12);
        assert!(c.current().max_batch <= batch0.div_ceil(2) + 1);
        assert_eq!(c.adjustments(), 1);
    }

    #[test]
    fn saturated_misses_widen_the_window_instead_of_shrinking_it() {
        // Same miss pattern as the shrink test, but batches are reported
        // stuck behind a busy engine: the fix is a *wider* window.
        let mut c = SloController::new(
            SloControllerConfig::for_slo(0.1),
            BatchFormerConfig {
                max_batch: 32,
                max_delay_s: 0.004,
            },
        );
        let delay0 = c.current().max_delay_s;
        let batch0 = c.current().max_batch;
        for i in 0..50 {
            let t = 0.002 * i as f64;
            c.observe_batch(t, 2, 1.0); // waited 1 s behind the engine
            c.observe(t, 1.0); // 10× the SLO
        }
        c.observe(0.2, 1.0);
        assert!(
            c.current().max_delay_s >= delay0 * 2.0 - 1e-12,
            "window should widen under saturation: {} vs {}",
            c.current().max_delay_s,
            delay0
        );
        assert!(c.current().max_batch >= batch0 * 2);
        assert_eq!(c.adjustments(), 1);
    }

    #[test]
    fn comfortable_latencies_grow_the_window_additively() {
        let mut c = controller(0.1);
        let delay0 = c.current().max_delay_s;
        for i in 0..50 {
            c.observe(0.002 * i as f64, 0.01); // 10 % of the SLO
        }
        c.observe(0.2, 0.01);
        let grown = c.current().max_delay_s;
        assert!(grown > delay0, "should grow: {grown} vs {delay0}");
        assert!(
            (grown - delay0 - c.config().increase_delay_s).abs() < 1e-12,
            "growth is additive"
        );
    }

    #[test]
    fn latencies_inside_the_guard_band_hold_steady() {
        let mut c = controller(0.1);
        let before = c.current();
        for i in 0..50 {
            c.observe(0.002 * i as f64, 0.09); // 90 % of SLO: no miss, no growth
        }
        c.observe(0.2, 0.09);
        assert_eq!(c.current().max_batch, before.max_batch);
        assert_eq!(c.current().max_delay_s, before.max_delay_s);
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn bounds_are_respected_under_sustained_pressure() {
        let mut c = controller(0.1);
        // Sustained misses: must stop at min bounds.
        for interval in 0..64 {
            for i in 0..10 {
                c.observe(interval as f64 + 0.01 * i as f64, 5.0);
            }
        }
        assert!(c.current().max_delay_s >= c.config().min_delay_s - 1e-15);
        assert!(c.current().max_batch >= c.config().min_batch);
        // Sustained comfort: must stop at max bounds.
        let mut g = controller(0.1);
        for interval in 0..1000 {
            for i in 0..10 {
                g.observe(interval as f64 + 0.01 * i as f64, 1e-4);
            }
        }
        assert!(g.current().max_delay_s <= g.config().max_delay_s + 1e-15);
        assert!(g.current().max_batch <= g.config().max_batch);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut c = controller(0.1);
        let before = c.current();
        for i in 0..50 {
            c.observe(0.002 * i as f64, f64::NAN);
            c.observe(0.002 * i as f64, -1.0);
        }
        c.observe(0.2, f64::INFINITY);
        // The window held nothing valid, so no decision was taken.
        assert_eq!(c.current().max_batch, before.max_batch);
        assert_eq!(c.current().max_delay_s, before.max_delay_s);
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn initial_config_is_clamped_into_bounds() {
        let cfg = SloControllerConfig::for_slo(0.1);
        let c = SloController::new(
            cfg,
            BatchFormerConfig {
                max_batch: 1_000_000,
                max_delay_s: 99.0,
            },
        );
        assert_eq!(c.current().max_batch, cfg.max_batch);
        assert_eq!(c.current().max_delay_s, cfg.max_delay_s);
    }

    #[test]
    #[should_panic(expected = "positive time")]
    fn non_positive_slo_is_rejected() {
        let _ = SloControllerConfig::for_slo(0.0);
    }

    #[test]
    fn chunk_cap_is_steered_with_the_window() {
        // Unsaturated misses shrink the chunk alongside the window...
        let mut c = controller(0.1);
        let chunk0 = c.current_chunk();
        assert!(chunk0 >= c.config().min_chunk && chunk0 <= c.config().max_chunk);
        for i in 0..50 {
            c.observe(0.002 * i as f64, 1.0);
        }
        c.observe(0.2, 1.0);
        assert!(
            c.current_chunk() <= chunk0.div_ceil(2) + 1,
            "chunk should shrink with the window: {} vs {}",
            c.current_chunk(),
            chunk0
        );
        // ...saturated misses grow it (amortization per dispatch)...
        let mut s = controller(0.1);
        let chunk0 = s.current_chunk();
        for i in 0..50 {
            let t = 0.002 * i as f64;
            s.observe_batch(t, 2, 1.0);
            s.observe(t, 1.0);
        }
        s.observe(0.2, 1.0);
        assert!(s.current_chunk() >= (chunk0 * 2).min(s.config().max_chunk));
        // ...and sustained pressure in either direction stops at the bounds.
        for interval in 0..64 {
            for i in 0..10 {
                c.observe(interval as f64 + 0.01 * i as f64, 5.0);
            }
        }
        assert_eq!(c.current_chunk(), c.config().min_chunk);
        assert_eq!(c.chunk(), Some(c.config().min_chunk));
        // Static policies steer no chunk at all.
        assert_eq!(FixedPolicy(BatchFormerConfig::default()).chunk(), None);
        assert_eq!(
            FixedPolicy(BatchFormerConfig::default()).chunk_for(TenantId(1)),
            None
        );
    }

    #[test]
    fn bank_routes_chunks_to_owned_tenants_only() {
        let bank = ControllerBank::new(BatchFormerConfig::default())
            .with_controller(TenantId(1), controller(0.1));
        assert!(bank.chunk_for(TenantId(1)).is_some());
        assert_eq!(bank.chunk_for(TenantId(2)), None, "no controller, no chunk");
        assert_eq!(bank.chunk(), None, "the bank's global answer is the default");
    }

    #[test]
    fn bank_routes_feedback_to_the_owning_tenant_only() {
        let mut bank = ControllerBank::new(BatchFormerConfig::default())
            .with_controller(TenantId(1), controller(0.1))
            .with_controller(TenantId(2), controller(10.0));
        assert_eq!(bank.name(), "adaptive-tenant");
        assert_eq!(bank.len(), 2);
        let t1_before = bank.current_for(TenantId(1));
        let t2_before = bank.current_for(TenantId(2));
        assert!(
            t1_before.max_delay_s < t2_before.max_delay_s,
            "SLO-derived priors scale with the SLO"
        );
        // A full interval of unsaturated misses for tenant 1 only.
        for i in 0..50 {
            bank.observe_for(TenantId(1), 0.002 * i as f64, 1.0);
        }
        bank.observe_for(TenantId(1), 0.2, 1.0);
        assert!(
            bank.current_for(TenantId(1)).max_delay_s < t1_before.max_delay_s,
            "tenant 1's window shrank"
        );
        assert_eq!(
            bank.current_for(TenantId(2)).max_delay_s,
            t2_before.max_delay_s,
            "tenant 2's window is untouched by tenant 1's misses"
        );
        assert_eq!(bank.adjustments(), 1, "adjustments sum across the bank");
        // Unknown tenants run (and keep) the default config.
        assert_eq!(
            bank.current_for(TenantId(9)).max_batch,
            BatchFormerConfig::default().max_batch
        );
        bank.observe_for(TenantId(9), 1.0, 99.0); // ignored, not a crash
        assert_eq!(bank.adjustments(), 1);
    }

    #[test]
    fn bank_builds_from_stream_profiles() {
        use annkit::workload::TenantProfile;
        let profiles = vec![
            TenantProfile {
                id: TenantId(1),
                name: "tight".to_string(),
                weight: 2,
                slo_p99_s: Some(0.5),
            },
            TenantProfile {
                id: TenantId(2),
                name: "no-slo".to_string(),
                weight: 1,
                slo_p99_s: None,
            },
        ];
        let default = BatchFormerConfig {
            max_batch: 7,
            max_delay_s: 0.25,
        };
        let bank = ControllerBank::for_profiles(&profiles, default);
        assert_eq!(bank.len(), 1, "only SLO-carrying tenants get controllers");
        assert!(bank.controller(TenantId(1)).is_some());
        assert!(bank.controller(TenantId(2)).is_none());
        assert_eq!(bank.current_for(TenantId(2)).max_batch, 7);
        assert!(!bank.is_empty());
    }
}
