//! Property-based tests (proptest) over the serving layer: the dynamic
//! batch former, the result cache, the admission queue, and the SLO
//! controller's convergence.
//!
//! The properties mirror the contracts the [`SearchService`] replay loop
//! relies on: the former never over-fills or over-waits a batch and never
//! mixes incompatible options; the cache is a faithful LRU that never
//! answers from the future; admission accounting balances; the
//! controller settles its observed p99 inside the SLO band; and a
//! one-tenant controller bank is that tenant's controller, call by call and
//! replay by replay.

use std::sync::OnceLock;

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::topk::Neighbor;
use annkit::workload::{StreamSpec, TenantId, TenantProfile};
use baselines::engine::QueryOptions;
use proptest::prelude::*;
use upanns_serve::admission::AdmissionQueue;
use upanns_serve::batcher::{
    BatchFormer, BatchFormerConfig, CloseReason, FormedBatch, PendingQuery,
};
use upanns_serve::cache::ResultCache;
use upanns_serve::controller::{BatchPolicy, ControllerBank, SloController};

/// The small universe of per-query option mixes the properties draw from
/// (three compat keys; the budget variant of key 0 must share its group).
fn option_of(tag: u8) -> QueryOptions {
    match tag % 4 {
        0 => QueryOptions::new(10, 8),
        1 => QueryOptions::new(10, 4),
        2 => QueryOptions::new(20, 8),
        _ => QueryOptions::new(10, 8).with_latency_budget(5e-3),
    }
}

/// Replays a byte-encoded arrival sequence through a former exactly the way
/// the service does (deadlines drained before each arrival, trailing windows
/// closed at their own deadlines), returning every formed batch.
fn drive_former(config: BatchFormerConfig, encoded: &[u8], gap_scale: f64) -> Vec<FormedBatch> {
    let mut former = BatchFormer::new(config);
    let mut batches = Vec::new();
    let mut now = 0.0f64;
    for (i, &b) in encoded.iter().enumerate() {
        // High bits: inter-arrival gap; low bits: which options mix.
        now += (b >> 3) as f64 * gap_scale;
        while let Some(deadline) = former.next_deadline() {
            if deadline > now {
                break;
            }
            batches.extend(former.due(deadline));
        }
        let pending = PendingQuery {
            arrival_s: now,
            stream_index: i,
            options: option_of(b),
        };
        if let Some(batch) = former.push(pending, now) {
            batches.push(batch);
        }
    }
    while let Some(deadline) = former.next_deadline() {
        batches.extend(former.due(deadline));
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No formed batch ever exceeds the size cap, however the arrivals and
    /// option mixes interleave.
    #[test]
    fn former_never_exceeds_the_size_cap(
        encoded in prop::collection::vec(0u8..=255, 1..300),
        max_batch in 1usize..12,
    ) {
        let config = BatchFormerConfig { max_batch, max_delay_s: 4e-3 };
        let batches = drive_former(config, &encoded, 1e-3);
        for batch in &batches {
            prop_assert!(batch.len() <= max_batch, "batch of {} > cap {}", batch.len(), max_batch);
            prop_assert!(!batch.is_empty(), "the former never emits empty batches");
        }
        // Conservation: every admitted query leaves in exactly one batch.
        let mut seen: Vec<usize> = batches
            .iter()
            .flat_map(|b| b.members.iter().map(|m| m.stream_index))
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..encoded.len()).collect::<Vec<_>>());
    }

    /// No query waits in the former past `max_delay` (plus the close-slack of
    /// the size trigger firing exactly at the cap).
    #[test]
    fn former_never_overholds_a_query(
        encoded in prop::collection::vec(0u8..=255, 1..300),
        max_batch in 1usize..12,
        delay_ms in 1.0f64..20.0,
    ) {
        let max_delay_s = delay_ms * 1e-3;
        let config = BatchFormerConfig { max_batch, max_delay_s };
        let batches = drive_former(config, &encoded, 1e-3);
        for batch in &batches {
            prop_assert!(batch.closed_at + 1e-12 >= batch.opened_at);
            match batch.reason {
                CloseReason::Deadline => {
                    // A deadline close is backdated to the deadline itself.
                    prop_assert!(
                        (batch.closed_at - (batch.opened_at + max_delay_s)).abs() < 1e-12
                    );
                }
                CloseReason::Size => {
                    // A size close happens no later than the group's deadline
                    // (overdue groups are drained before every push).
                    prop_assert!(batch.closed_at <= batch.opened_at + max_delay_s + 1e-12);
                }
            }
            for member in &batch.members {
                prop_assert!(member.arrival_s + 1e-12 >= batch.opened_at);
                prop_assert!(member.arrival_s <= batch.closed_at + 1e-12);
                prop_assert!(
                    batch.closed_at - member.arrival_s <= max_delay_s + 1e-12,
                    "query waited {} s with max_delay {} s",
                    batch.closed_at - member.arrival_s,
                    max_delay_s
                );
            }
        }
    }

    /// Compat-key grouping never mixes incompatible options, and within a
    /// batch the members drain in admission order.
    #[test]
    fn former_groups_are_pure_and_ordered(
        encoded in prop::collection::vec(0u8..=255, 1..300),
        max_batch in 1usize..12,
    ) {
        let config = BatchFormerConfig { max_batch, max_delay_s: 3e-3 };
        let batches = drive_former(config, &encoded, 1e-3);
        for batch in &batches {
            let key = batch.options.compat_key();
            for member in &batch.members {
                prop_assert_eq!(member.options.compat_key(), key);
            }
            for pair in batch.members.windows(2) {
                prop_assert!(
                    pair[0].stream_index < pair[1].stream_index,
                    "admission order violated within a group"
                );
                prop_assert!(pair[0].arrival_s <= pair[1].arrival_s + 1e-12);
            }
        }
    }

    /// The cache is a faithful LRU: hits/misses and evictions match a naive
    /// reference model, and the size never exceeds the capacity.
    #[test]
    fn cache_matches_a_reference_lru(
        ops in prop::collection::vec(0u8..=255, 1..200),
        capacity in 1usize..6,
    ) {
        let mut cache = ResultCache::new(capacity);
        // Reference model: most-recently-used at the back.
        let mut model: Vec<u8> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let key = op % 8;
            let query = [key as f32];
            let options = QueryOptions::new(10, 8);
            if op & 0x80 == 0 {
                // Insert: refresh recency, evict the front when full.
                cache.insert(&query, &options, vec![Neighbor::new(key as u64, 0.0)], i as f64);
                if let Some(pos) = model.iter().position(|&k| k == key) {
                    model.remove(pos);
                } else if model.len() == capacity {
                    model.remove(0);
                }
                model.push(key);
            } else {
                let hit = cache.lookup(&query, &options);
                match model.iter().position(|&k| k == key) {
                    Some(pos) => {
                        let (neighbors, _) = hit.expect("model says hit");
                        prop_assert_eq!(neighbors[0].id, key as u64);
                        model.remove(pos);
                        model.push(key); // a hit refreshes recency
                    }
                    None => prop_assert!(hit.is_none(), "model says miss"),
                }
            }
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.len(), model.len());
        }
    }

    /// A cached answer always reports the exact availability time it was
    /// stored with — the `ready_at` a repeat must wait for (the time-travel
    /// guard), surviving overwrites by repeated queries.
    #[test]
    fn cache_ready_at_is_faithful_under_repeats(
        rounds in prop::collection::vec(0u8..=255, 1..60),
    ) {
        let mut cache = ResultCache::new(16);
        let options = QueryOptions::new(5, 4);
        let mut expected: Vec<Option<f64>> = vec![None; 4];
        for (i, &op) in rounds.iter().enumerate() {
            let key = (op % 4) as usize;
            let query = [key as f32];
            let t = i as f64;
            if op & 0x80 == 0 {
                // Re-answering the same query overwrites ready_at.
                cache.insert(&query, &options, vec![Neighbor::new(key as u64, 0.0)], t);
                expected[key] = Some(t);
            } else if let Some((_, ready_at)) = cache.lookup(&query, &options) {
                let want = expected[key].expect("cache cannot invent entries");
                prop_assert_eq!(ready_at, want);
                prop_assert!(ready_at <= t, "an entry can only become ready in the past of its insertion clock");
            }
        }
    }

    /// Single-tenant admission accounting balances under arbitrary
    /// admit/release interleavings, and the waiting count respects the
    /// capacity. With one tenant the DRR machinery must degenerate to the
    /// plain bounded waiting room: room available ⟺ admitted.
    #[test]
    fn admission_queue_accounting_balances(
        ops in prop::collection::vec(0u8..=255, 1..300),
        capacity in 1usize..20,
    ) {
        let t = TenantId::DEFAULT;
        let mut queue = AdmissionQueue::new(capacity);
        let mut waiting = 0usize;
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for &op in &ops {
            if op & 1 == 0 {
                let got_in = queue.try_admit(t);
                if waiting < capacity {
                    prop_assert!(got_in, "room available but shed");
                    waiting += 1;
                    admitted += 1;
                } else {
                    prop_assert!(!got_in, "admitted past capacity");
                    shed += 1;
                }
            } else {
                // Release a batch of up to 7 waiters (never more than exist).
                let n = ((op >> 1) as usize % 8).min(waiting);
                queue.release(t, n);
                waiting -= n;
            }
            prop_assert!(queue.waiting() <= capacity);
            prop_assert_eq!(queue.waiting(), waiting);
            prop_assert_eq!(queue.admitted(), admitted);
            prop_assert_eq!(queue.shed(), shed);
        }
    }

    /// Weighted-fair admission conserves slots exactly: at every step,
    /// waiting + reserved + free == capacity, per-tenant accounting balances,
    /// and an arrival is shed only when its tenant holds no reservation and
    /// the free pool is empty (work conservation — free room is never
    /// withheld from anyone). Admissions come only from a reservation, the
    /// free pool, or the staleness valve reclaiming reservations after
    /// `capacity` consecutive sheds.
    #[test]
    fn weighted_admission_conserves_slots_and_free_room(
        ops in prop::collection::vec(0u16..=1023, 1..400),
        capacity in 1usize..24,
        weights in prop::collection::vec(1u32..6, 3),
    ) {
        let tenants = [TenantId(1), TenantId(2), TenantId(3)];
        let mut queue = AdmissionQueue::new(capacity);
        for (t, w) in tenants.iter().zip(&weights) {
            queue.register(*t, *w);
        }
        let mut waiting = [0usize; 3];
        let mut admitted = [0u64; 3];
        let mut shed = [0u64; 3];
        // Model of the staleness valve's clock: sheds since the last
        // admission or reservation grant.
        let mut stale_sheds = 0usize;
        for &op in &ops {
            let ti = (op % 3) as usize;
            let t = tenants[ti];
            if op & 0x200 == 0 {
                let free_before = queue.free();
                let reserved_before = queue.reserved_of(t);
                let all_reserved_before: usize =
                    tenants.iter().map(|&t| queue.reserved_of(t)).sum();
                let got_in = queue.try_admit(t);
                if got_in {
                    waiting[ti] += 1;
                    admitted[ti] += 1;
                    prop_assert!(
                        reserved_before > 0
                            || free_before > 0
                            || (stale_sheds >= capacity && all_reserved_before > 0),
                        "admitted out of thin air"
                    );
                    stale_sheds = 0;
                } else {
                    shed[ti] += 1;
                    stale_sheds += 1;
                    prop_assert_eq!(free_before, 0, "shed while free room existed");
                    prop_assert_eq!(reserved_before, 0, "shed past its own reservation");
                }
            } else {
                let n = (((op >> 2) as usize) % 8).min(waiting[ti]);
                let reserved_before: usize =
                    tenants.iter().map(|&t| queue.reserved_of(t)).sum();
                queue.release(t, n);
                waiting[ti] -= n;
                let reserved_after: usize =
                    tenants.iter().map(|&t| queue.reserved_of(t)).sum();
                if reserved_after > reserved_before {
                    stale_sheds = 0; // fresh grants restart the valve's clock
                }
            }
            // Slot conservation across waiting, reservations and free pool.
            let reserved_total: usize =
                tenants.iter().map(|&t| queue.reserved_of(t)).sum();
            prop_assert_eq!(
                queue.waiting() + reserved_total + queue.free(),
                capacity,
                "slots leaked"
            );
            for (i, &t) in tenants.iter().enumerate() {
                prop_assert_eq!(queue.waiting_of(t), waiting[i]);
                prop_assert_eq!(queue.admitted_of(t), admitted[i]);
                prop_assert_eq!(queue.shed_of(t), shed[i]);
            }
        }
    }

    /// Under saturation — every tenant continuously arriving and shedding —
    /// freed capacity is re-admitted in proportion to the tenants' weights:
    /// post-warmup admission ratios match weight ratios within 20 %.
    #[test]
    fn weighted_admission_is_weight_proportional_under_saturation(
        w1 in 1u32..6,
        w2 in 1u32..6,
        release_size in 1usize..5,
    ) {
        let (t1, t2) = (TenantId(1), TenantId(2));
        let capacity = 24usize;
        let mut queue = AdmissionQueue::new(capacity)
            .with_tenant(t1, w1)
            .with_tenant(t2, w2);
        // Fill the room and build backlog on both tenants.
        let mut waiting = [0usize; 2];
        for round in 0..capacity * 2 {
            let ti = round % 2;
            if queue.try_admit([t1, t2][ti]) {
                waiting[ti] += 1;
            }
        }
        // Warm up one full allocation cycle, then measure. Each tenant
        // re-applies at 3× the completion rate so both stay saturated well
        // past their fair shares — proportionality is only promised when
        // every tenant's demand exceeds its entitlement (with thinner
        // demand, the unused share flows to whoever wants it: work
        // conservation trumps the weights).
        let mut admitted_before = [0u64; 2];
        for phase in 0..2 {
            if phase == 1 {
                admitted_before = [queue.admitted_of(t1), queue.admitted_of(t2)];
            }
            for _ in 0..600 {
                // Complete `release_size` waiters of whichever tenant holds
                // more, then both tenants re-apply (and shed on failure).
                let ti = if waiting[0] >= waiting[1] { 0 } else { 1 };
                let n = release_size.min(waiting[ti]);
                queue.release([t1, t2][ti], n);
                waiting[ti] -= n;
                for _ in 0..3 * (n + 1) {
                    for (i, &t) in [t1, t2].iter().enumerate() {
                        if queue.try_admit(t) {
                            waiting[i] += 1;
                        }
                    }
                }
            }
        }
        let a1 = (queue.admitted_of(t1) - admitted_before[0]) as f64;
        let a2 = (queue.admitted_of(t2) - admitted_before[1]) as f64;
        prop_assert!(a1 > 0.0 && a2 > 0.0, "a tenant was starved outright");
        let measured = a1 / a2;
        let expected = f64::from(w1) / f64::from(w2);
        prop_assert!(
            (measured / expected - 1.0).abs() < 0.1,
            "admissions {}:{} = {:.3} vs weights {}:{} = {:.3}",
            a1, a2, measured, w1, w2, expected
        );
    }

    /// No starvation: a weight-1 tenant sharing a saturated queue with a
    /// maximally heavy rival keeps making progress — it is admitted at least
    /// once per DRR round, i.e. at least once per `capacity` completions.
    #[test]
    fn weighted_admission_never_starves_the_light_tenant(
        heavy_weight in 1u32..32,
        capacity in 2usize..16,
    ) {
        let (heavy, light) = (TenantId(1), TenantId(2));
        let mut queue = AdmissionQueue::new(capacity)
            .with_tenant(heavy, heavy_weight)
            .with_tenant(light, 1);
        let mut waiting = [0usize; 2];
        // Saturate: heavy grabs everything, then both backlog.
        while queue.try_admit(heavy) {
            waiting[0] += 1;
        }
        for _ in 0..capacity {
            queue.try_admit(heavy);
            queue.try_admit(light);
        }
        // 20 rounds of single-slot completions with both tenants re-applying.
        let mut light_progress = 0u64;
        for _ in 0..20 * capacity {
            let ti = if waiting[0] >= waiting[1] { 0 } else { 1 };
            if waiting[ti] == 0 {
                continue;
            }
            queue.release([heavy, light][ti], 1);
            waiting[ti] -= 1;
            for (i, &t) in [heavy, light].iter().enumerate() {
                let before = queue.admitted_of(t);
                if queue.try_admit(t) {
                    waiting[i] += 1;
                }
                if i == 1 && queue.admitted_of(t) > before {
                    light_progress += 1;
                }
            }
        }
        prop_assert!(
            light_progress >= 10,
            "light tenant starved: only {light_progress} admissions over 20 rounds"
        );
    }

    /// Convergence: against a synthetic latency model where the observed p99
    /// is proportional to the batching window, the controller settles the
    /// p99 inside the SLO band [grow_below × SLO, SLO] — from below *and*
    /// from above — and stays there.
    #[test]
    fn controller_converges_p99_into_the_slo_band(
        start_fraction in 0.01f64..0.5,
        noise in prop::collection::vec(0.9f64..1.1, 32),
        slo_ms in 20.0f64..500.0,
    ) {
        let slo = slo_ms * 1e-3;
        let mut controller = SloController::new(
            slo,
            upanns_serve::batcher::BatchFormerConfig {
                max_batch: 64,
                max_delay_s: start_fraction * slo,
            },
        );
        let interval = controller.adjust_interval_s();
        let t = TenantId::DEFAULT;
        // Latency model: p99 ≈ 3 × window (waiting + queueing + execution all
        // scale with the window at a loaded engine that is keeping up).
        let mut now = 0.0f64;
        let mut last_p99 = 0.0f64;
        for _ in 0..60 {
            let window = controller.current(t).max_delay_s;
            let mut worst = 0.0f64;
            for (j, n) in noise.iter().enumerate() {
                now += interval / noise.len() as f64;
                let latency = 3.0 * window * n * (0.97 + 0.03 * (j % 2) as f64);
                worst = worst.max(latency);
                controller.observe(t, now, latency);
            }
            last_p99 = worst;
        }
        let band_low = SloController::GROW_BELOW * slo;
        prop_assert!(
            last_p99 <= slo * 1.02,
            "p99 {last_p99} settled above the SLO {slo}"
        );
        prop_assert!(
            last_p99 >= band_low * 0.5,
            "p99 {last_p99} settled far below the band floor {band_low} — the controller left throughput on the table"
        );
        // And it holds still once inside the band.
        let settled = controller.current(t);
        for j in 0..32 {
            now += interval / 16.0;
            controller.observe(t, now, 3.0 * settled.max_delay_s * noise[j % noise.len()]);
        }
        prop_assert_eq!(controller.current(t).max_delay_s.to_bits(), settled.max_delay_s.to_bits());
    }

    /// The serving bench's one adaptive policy rests on this: a
    /// [`ControllerBank`] over a single tenant with SLO `s` is
    /// `SloController::for_slo(s)`. Through any sequence of completions
    /// (misses, comfort, degenerate latencies) and batch waits, both answer
    /// the same window and adjustment count after every call.
    #[test]
    fn a_one_tenant_bank_is_its_slo_controller(
        slo_ms in 1.0f64..500.0,
        tenant in 0u32..4,
        ops in prop::collection::vec((0u8..=255, 0.0f64..1.0, 0.0f64..3.0), 1..400),
    ) {
        let slo = slo_ms * 1e-3;
        let t = TenantId(tenant);
        let profile = TenantProfile { id: t, name: "only".to_string(), weight: 1, slo_p99_s: Some(slo) };
        let mut bank = ControllerBank::for_profiles(&[profile], BatchFormerConfig::default());
        let mut alone = SloController::for_slo(slo);
        let mut now = 0.0f64;
        for &(op, gap, scale) in &ops {
            // About eight calls per decision interval.
            now += gap * slo / 4.0;
            if op & 1 == 0 {
                let latency = if op >= 0xF0 { f64::NAN } else { scale * slo };
                bank.observe(t, now, latency);
                alone.observe(t, now, latency);
            } else {
                let wait = scale * alone.current(t).max_delay_s;
                bank.observe_batch(t, now, wait);
                alone.observe_batch(t, now, wait);
            }
            let (b, a) = (bank.current(t), alone.current(t));
            prop_assert_eq!(b.max_batch, a.max_batch);
            prop_assert_eq!(b.max_delay_s.to_bits(), a.max_delay_s.to_bits());
            prop_assert_eq!(bank.adjustments(), alone.adjustments());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same contract end to end: a single-tenant stream replayed on one
    /// engine under the one-tenant bank and under its `SloController`
    /// produces reports equal in every field but the policy's name —
    /// latencies compared as bits — whole-batch or chunked.
    #[test]
    fn a_one_tenant_bank_replays_like_its_slo_controller(
        slo_ms in 1.0f64..10.0,
        qps in 500.0f64..8_000.0,
        repeat in 0.0f64..0.5,
        chunked in 0u8..2,
    ) {
        use baselines::cpu::CpuFaissEngine;
        use upanns_serve::{SearchService, ServiceConfig};

        let (dataset, index) = replay_fixture();
        let slo = slo_ms * 1e-3;
        let stream = StreamSpec::new(240, qps)
            .with_repeat_fraction(repeat)
            .with_slo_p99(slo)
            .generate(dataset);
        let config = ServiceConfig {
            max_chunk: (chunked == 1).then_some(4),
            ..ServiceConfig::default()
        };
        let options = |i: usize| QueryOptions::new(10, 4 + 4 * (i % 2));
        let replay = |policy: Box<dyn BatchPolicy>| {
            SearchService::new(CpuFaissEngine::new(index), config)
                .with_policy(policy)
                .replay(&stream, options)
        };
        let alone = replay(Box::new(SloController::for_slo(slo)));
        let mut bank =
            replay(Box::new(ControllerBank::for_profiles(&stream.tenant_profiles, config.batcher)));
        let bits = |latencies: &[f64]| latencies.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&bank.latencies_s), bits(&alone.latencies_s));
        prop_assert!(bank.policy != alone.policy);        bank.policy.clone_from(&alone.policy);
        // `Debug` writes every field, each float in its shortest exact form.
        prop_assert_eq!(format!("{bank:?}"), format!("{alone:?}"));
    }
}

/// The index the replay-level property serves, built once.
fn replay_fixture() -> &'static (SyntheticDataset, IvfPqIndex) {
    static FIXTURE: OnceLock<(SyntheticDataset, IvfPqIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = SyntheticSpec::sift_like(600)
            .with_clusters(8)
            .with_seed(11)
            .generate_with_meta();
        let index = IvfPqIndex::train(&data.vectors, &IvfPqParams::new(16, 8), 3);
        (data, index)
    })
}

/// The service-level time-travel guard: a repeat arriving after its
/// original's batch closed but before the answer exists must wait for the
/// answer — its latency includes the remaining execution time.
#[test]
fn repeats_wait_for_the_original_answer() {
    use baselines::cpu::CpuFaissEngine;
    use upanns_serve::{SearchService, ServiceConfig};

    let dataset = SyntheticSpec::sift_like(600)
        .with_clusters(8)
        .with_seed(11)
        .generate_with_meta();
    let index = IvfPqIndex::train(
        &dataset.vectors,
        &IvfPqParams::new(8, 16).with_train_size(300),
        2,
    );
    // Every query identical and near-instant arrivals: the first closes its
    // batch (max_batch 1) at t≈0 and executes for `engine_busy_s`; every
    // repeat hits the cache but must wait for that answer.
    let cache_lookup_s = 1e-6;
    let config = ServiceConfig {
        queue_capacity: 64,
        batcher: BatchFormerConfig {
            max_batch: 1,
            max_delay_s: 10.0,
        },
        cache_capacity: 64,
        cache_lookup_s,
        slo_p99_s: None,
        max_chunk: None,
    };
    // The work scale inflates the modeled execution time so it dwarfs both
    // the arrival spacing and the cache lookup.
    let mut service = SearchService::new(CpuFaissEngine::new(&index).with_work_scale(1e5), config);
    let stream = StreamSpec::new(20, 1e9)
        .with_repeat_fraction(1.0)
        .generate(&dataset);
    let report = service.replay(&stream, |_| QueryOptions::new(5, 4));
    // With repeat fraction 1.0 every query is (transitively) a copy of the
    // first, so exactly one batch runs and all 19 repeats are cache hits.
    assert_eq!(report.completed, 20);
    assert_eq!(report.batches(), 1);
    assert_eq!(report.cache_hits, 19);
    // Arrivals are ~instant (qps 1e9) while the one batch takes
    // `engine_busy_s` of simulated time. Every repeat arrived long before the
    // answer existed, so the guard forces every latency up to ≈ the
    // execution time; a time-traveling hit would cost only the ~1 µs lookup.
    assert!(report.engine_busy_s > 1e3 * cache_lookup_s);
    let min_latency = report.latencies_s[0];
    assert!(
        min_latency >= report.engine_busy_s * 0.99,
        "a cached answer time-traveled: min latency {min_latency} vs execution {}",
        report.engine_busy_s
    );
}
