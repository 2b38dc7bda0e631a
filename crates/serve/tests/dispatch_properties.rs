//! Property-based tests (proptest) over the dispatch queue in front of a
//! serial engine (the clock lives here, in [`pop_due`]): work conservation,
//! close-before-dispatch, chunk-cap respect, EDF ordering among ready
//! chunks, the one-chunk head-of-line bound for a tight-SLO tenant, and
//! causal completion ordering at the service level under non-monotone
//! (priority) finishes.

use baselines::engine::{QueryOptions, TenantId};
use proptest::prelude::*;
use upanns_serve::batcher::{CloseReason, FormedBatch, PendingQuery};
use upanns_serve::dispatch::{ChunkQueue, DispatchOrder, QueuedChunk};

/// A synthetic formed batch: `n` members of `tenant`, arrivals spread up to
/// `closed_at`.
fn batch(tenant: u32, id_base: usize, n: usize, closed_at: f64) -> FormedBatch {
    let options = QueryOptions::new(10, 8).with_tenant(TenantId(tenant));
    let opened_at = (closed_at - 0.1).max(0.0);
    FormedBatch {
        options,
        members: (0..n)
            .map(|i| PendingQuery {
                arrival_s: opened_at + (closed_at - opened_at) * i as f64 / n as f64,
                stream_index: id_base + i,
                options,
            })
            .collect(),
        opened_at,
        closed_at,
        reason: CloseReason::Deadline,
    }
}

/// One recorded dispatch.
#[derive(Debug, Clone)]
struct Dispatch {
    start: f64,
    finish: f64,
    ready_at: f64,
    len: usize,
    stream_indices: Vec<usize>,
}

/// The next dispatch of a serial engine that frees at `free_at`, the way the
/// replay driver picks it: the start is `max(free_at, earliest ready_at)`,
/// the chunk is the queue's choice among those ready by that start. `None`
/// when nothing is queued or the start would be after `now`.
fn pop_due(queue: &mut ChunkQueue, free_at: f64, now: f64) -> Option<(QueuedChunk, f64)> {
    let start = queue.next_ready_at()?.max(free_at);
    if start > now {
        return None;
    }
    Some((queue.pop_ready(start)?, start))
}

/// Drives the queue the way the service does — submissions in close order,
/// every due dispatch run before the clock passes it — with a
/// linear-in-batch-size service-time model. Returns the dispatch log.
fn drive(
    queue: &mut ChunkQueue,
    submissions: &[(FormedBatch, Option<f64>, usize)],
    per_query_s: f64,
) -> Vec<Dispatch> {
    let mut log = Vec::new();
    let mut free_at = 0.0f64;
    let mut run_due = |queue: &mut ChunkQueue, now: f64| {
        while let Some((chunk, start)) = pop_due(queue, free_at, now) {
            free_at = start + per_query_s * chunk.batch.len() as f64;
            log.push(Dispatch {
                start,
                finish: free_at,
                ready_at: chunk.ready_at(),
                len: chunk.batch.len(),
                stream_indices: chunk.batch.members.iter().map(|m| m.stream_index).collect(),
            });
        }
    };
    for (batch, slo, cap) in submissions {
        run_due(queue, batch.closed_at);
        queue.submit(batch.clone(), *slo, *cap);
    }
    run_due(queue, f64::INFINITY);
    log
}

/// Builds a close-ordered submission list from fuzz bytes: tenant, size and
/// inter-close gap per batch; tenants 1–2 carry SLOs, tenant 3 none.
fn submissions_from(encoded: &[u8], cap: usize) -> Vec<(FormedBatch, Option<f64>, usize)> {
    let mut subs = Vec::new();
    let mut now = 0.0f64;
    let mut id_base = 0usize;
    for &b in encoded {
        now += (b >> 5) as f64 * 0.01;
        let tenant = (b % 3) as u32 + 1;
        let n = (b as usize % 17) + 1;
        let slo = match tenant {
            1 => Some(0.05),
            2 => Some(0.8),
            _ => None,
        };
        subs.push((batch(tenant, id_base, n, now), slo, cap));
        id_base += n;
    }
    subs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation, the chunk cap, close-before-dispatch and serial
    /// (non-decreasing) finishes, under arbitrary close orders and sizes.
    #[test]
    fn scheduler_conserves_queries_and_respects_chunk_caps(
        encoded in prop::collection::vec(0u8..=255, 1..60),
        cap in 1usize..9,
    ) {
        let subs = submissions_from(&encoded, cap);
        let total: usize = subs.iter().map(|(b, _, _)| b.len()).sum();
        let mut queue = ChunkQueue::new(DispatchOrder::SloUrgency);
        let log = drive(&mut queue, &subs, 0.003);
        prop_assert!(queue.is_empty(), "everything submitted was dispatched");
        // Every query leaves in exactly one chunk.
        let mut seen: Vec<usize> = log.iter().flat_map(|d| d.stream_indices.clone()).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());
        for d in &log {
            prop_assert!(d.len <= cap, "chunk of {} > cap {}", d.len, cap);
            prop_assert!(
                d.start >= d.ready_at - 1e-12,
                "dispatched at {} before its batch closed at {}",
                d.start,
                d.ready_at
            );
        }
        // The engine is serial: finishes are non-decreasing in dispatch
        // order.
        for pair in log.windows(2) {
            prop_assert!(pair[0].finish <= pair[1].start + 1e-12);
            prop_assert!(pair[0].finish <= pair[1].finish + 1e-12);
        }
    }

    /// Work conservation: the engine never idles while a submitted chunk is
    /// ready — any idle gap before a dispatch means that chunk (and every
    /// chunk dispatched after it) only became ready when the gap ended.
    #[test]
    fn scheduler_never_idles_while_work_is_ready(
        encoded in prop::collection::vec(0u8..=255, 1..60),
        cap in 1usize..9,
    ) {
        let subs = submissions_from(&encoded, cap);
        let mut queue = ChunkQueue::new(DispatchOrder::SloUrgency);
        let log = drive(&mut queue, &subs, 0.004);
        for i in 1..log.len() {
            let gap_start = log[i - 1].finish;
            let gap_end = log[i].start;
            if gap_end > gap_start + 1e-12 {
                // The engine sat idle in (gap_start, gap_end): no chunk
                // dispatched at or after gap_end may have been ready
                // earlier than gap_end.
                for later in &log[i..] {
                    prop_assert!(
                        later.ready_at >= gap_end - 1e-12,
                        "chunk ready at {} sat out an idle gap ending {}",
                        later.ready_at,
                        gap_end
                    );
                }
            }
        }
    }

    /// EDF among ready chunks: every dispatch picks the minimum
    /// `(deadline, seq)` over the chunks whose batches had closed by the
    /// dispatch start — verified against an independently maintained mirror
    /// of the queue.
    #[test]
    fn dispatch_is_edf_among_ready_chunks(
        encoded in prop::collection::vec(0u8..=255, 1..60),
        cap in 1usize..9,
    ) {
        let subs = submissions_from(&encoded, cap);
        // Mirror of the queue — (ready, deadline, seq) per
        // chunk, replicated exactly as submit() chunks, and mutated only at
        // the same points the real queue is (submission and dispatch).
        let mut mirror: Vec<(f64, f64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut queue = ChunkQueue::new(DispatchOrder::SloUrgency);
        let mut free_at = 0.0f64;
        fn check_pop(
            queue: &mut ChunkQueue,
            free_at: &mut f64,
            mirror: &mut Vec<(f64, f64, u64)>,
            now: f64,
        ) {
            while let Some((chunk, start)) = pop_due(queue, *free_at, now) {
                let best = mirror
                    .iter()
                    .filter(|(ready, _, _)| *ready <= start + 1e-12)
                    .min_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.2.cmp(&b.2))
                    })
                    .copied()
                    .expect("mirror tracks every queued chunk");
                prop_assert_eq!(
                    (chunk.deadline, chunk.seq),
                    (best.1, best.2),
                    "dispatch was not the most urgent ready chunk"
                );
                mirror.retain(|&(_, _, s)| s != chunk.seq);
                *free_at = start + 0.002 * chunk.batch.len() as f64;
            }
        }
        for (b, slo, cap) in &subs {
            check_pop(&mut queue, &mut free_at, &mut mirror, b.closed_at);
            for chunk in b.members.chunks(*cap) {
                let deadline = slo.map_or(f64::INFINITY, |s| chunk[0].arrival_s + s);
                mirror.push((b.closed_at, deadline, seq));
                seq += 1;
            }
            queue.submit(b.clone(), *slo, *cap);
        }
        check_pop(&mut queue, &mut free_at, &mut mirror, f64::INFINITY);
        prop_assert!(mirror.is_empty());
    }

    /// The head-of-line bound the chunking exists for: a tight-SLO singleton
    /// submitted into arbitrary bulk traffic starts within one chunk's
    /// service time of becoming ready — never a whole bulk batch.
    #[test]
    fn tight_tenant_waits_at_most_one_chunk_service_time(
        bulk in prop::collection::vec(0u8..=255, 1..25),
        cap in 1usize..9,
        tight_at_fraction in 0.0f64..1.0,
    ) {
        let per_query_s = 0.01;
        let mut subs = Vec::new();
        let mut now = 0.0f64;
        let mut id_base = 0usize;
        for &b in &bulk {
            // High bits: inter-close gap; low bits: bulk batch size.
            let (n, gap) = ((b as usize % 39) + 1, b >> 5);
            now += gap as f64 * 0.01;
            subs.push((batch(2, id_base, n, now), None, cap));
            id_base += n;
        }
        // The tight singleton closes somewhere inside the bulk timeline.
        let tight_at = now * tight_at_fraction;
        let tight = batch(1, id_base, 1, tight_at);
        let pos = subs
            .iter()
            .position(|(b, _, _)| b.closed_at > tight_at)
            .unwrap_or(subs.len());
        subs.insert(pos, (tight, Some(0.05), cap));
        let mut queue = ChunkQueue::new(DispatchOrder::SloUrgency);
        let log = drive(&mut queue, &subs, per_query_s);
        let tight_dispatch = log
            .iter()
            .find(|d| d.stream_indices == vec![id_base])
            .expect("the tight query was dispatched");
        let bound = tight_at + cap as f64 * per_query_s;
        prop_assert!(
            tight_dispatch.start <= bound + 1e-9,
            "tight query started at {} — more than one chunk ({} s) after its close {}",
            tight_dispatch.start,
            cap as f64 * per_query_s,
            tight_at
        );
    }

    /// Close-order mode is exactly the pre-scheduler serial semantics:
    /// submission order, whole batches, `start = max(previous finish,
    /// close)` — the regression baseline the priority mode is measured
    /// against.
    #[test]
    fn close_order_mode_is_serial_fifo(
        encoded in prop::collection::vec(0u8..=255, 1..60),
    ) {
        // Caps are ignored in close order: pass an aggressive one.
        let subs = submissions_from(&encoded, 1);
        let mut queue = ChunkQueue::new(DispatchOrder::CloseOrder);
        let log = drive(&mut queue, &subs, 0.003);
        prop_assert_eq!(log.len(), subs.len(), "one dispatch per batch, never split");
        prop_assert_eq!(queue.split_batches(), 0);
        let mut free = 0.0f64;
        for (d, (b, _, _)) in log.iter().zip(&subs) {
            prop_assert_eq!(d.len, b.len(), "batches stay whole");
            prop_assert!((d.start - b.closed_at.max(free)).abs() < 1e-12);
            free = d.finish;
        }
    }
}

mod service_level {
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
    use annkit::workload::{MultiTenantSpec, StreamSpec, TenantId, TenantSpec};
    use baselines::cpu::CpuFaissEngine;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use upanns_serve::batcher::BatchFormerConfig;
    use upanns_serve::controller::ControllerBank;
    use upanns_serve::{SearchService, ServiceConfig};

    fn fixture() -> &'static (SyntheticDataset, IvfPqIndex) {
        static FIX: OnceLock<(SyntheticDataset, IvfPqIndex)> = OnceLock::new();
        FIX.get_or_init(|| {
            let dataset = SyntheticSpec::sift_like(900)
                .with_clusters(8)
                .with_seed(17)
                .generate_with_meta();
            let index = IvfPqIndex::train(
                &dataset.vectors,
                &IvfPqParams::new(8, 16).with_train_size(400),
                2,
            );
            (dataset, index)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// End-to-end causal ordering under non-monotone finishes: a chunked
        /// priority replay over a random two-tenant mix conserves every
        /// query, keeps per-tenant accounting consistent (the admission
        /// queue's release assertions would panic on any completion-order
        /// bug), and answers exactly what the unchunked replay answers.
        #[test]
        fn chunked_replay_is_conservative_and_answer_identical(
            tight_queries in 5usize..40,
            bulk_queries in 40usize..160,
            tight_slo_ms in 20.0f64..500.0,
            max_chunk in 1usize..24,
            seed_qps in 100.0f64..50_000.0,
        ) {
            let (dataset, index) = fixture();
            let spec = MultiTenantSpec::new()
                .with_tenant(
                    TenantSpec::new(
                        TenantId(1),
                        StreamSpec::new(tight_queries, seed_qps / 10.0)
                            .with_slo_p99(tight_slo_ms * 1e-3),
                    )
                    .with_option_mix(vec![(5, 4)]),
                )
                .with_tenant(
                    TenantSpec::new(TenantId(2), StreamSpec::new(bulk_queries, seed_qps))
                        .with_option_mix(vec![(5, 4), (10, 8)]),
                );
            let stream = spec.generate(dataset);
            let config = ServiceConfig {
                queue_capacity: 64,
                batcher: BatchFormerConfig {
                    max_batch: 48,
                    max_delay_s: 20e-3,
                },
                cache_capacity: 32,
                ..ServiceConfig::default()
            };
            let bank = ControllerBank::for_profiles(
                &stream.tenant_profiles,
                config.batcher,
            );
            let mut chunked = SearchService::new(CpuFaissEngine::new(index), ServiceConfig {
                max_chunk: Some(max_chunk),
                ..config
            })
            .with_policy(Box::new(bank.clone()));
            let report = chunked.replay_planned(&stream);
            let n = tight_queries + bulk_queries;
            prop_assert_eq!(report.completed + report.shed, n);
            prop_assert_eq!(report.latencies_s.len(), report.completed);
            prop_assert!(report.latencies_s.iter().all(|&l| l >= 0.0 && l.is_finite()));
            let t1 = report.tenant(TenantId(1)).expect("tight row");
            let t2 = report.tenant(TenantId(2)).expect("bulk row");
            prop_assert_eq!(t1.completed + t1.shed, tight_queries);
            prop_assert_eq!(t2.completed + t2.shed, bulk_queries);
            prop_assert_eq!(t1.completed + t2.completed, report.completed);
            prop_assert_eq!(t1.shed + t2.shed, report.shed);
            prop_assert!(report.dispatched_chunks >= report.batches());
            // Dispatch shape never changes answers.
            let mut unchunked = SearchService::new(CpuFaissEngine::new(index), config)
                .with_policy(Box::new(bank));
            let baseline = unchunked.replay_planned(&stream);
            for (a, b) in report.results.iter().zip(&baseline.results) {
                if a.is_empty() || b.is_empty() {
                    continue; // shed under one dispatch discipline only
                }
                prop_assert_eq!(
                    a.iter().map(|n| n.id).collect::<Vec<_>>(),
                    b.iter().map(|n| n.id).collect::<Vec<_>>()
                );
            }
        }
    }
}
