//! Pins every field of two replays' [`ServiceReport`]s, so a refactor of the
//! serving core's accounting cannot move a bit of what it reports.
//!
//! Scalars are pinned as literals (floats by their bits); vectors as an
//! FNV-1a hash over the bits of their elements, in report order. Arrival
//! times are overwritten with an evenly spaced, dyadic schedule, so no libm
//! rounding reaches the clock.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::topk::Neighbor;
use annkit::workload::{MultiTenantSpec, QueryStream, StreamSpec, TenantId, TenantSpec};
use baselines::cpu::CpuFaissEngine;
use baselines::engine::QueryOptions;
use upanns_serve::batcher::BatchFormerConfig;
use upanns_serve::controller::{ControllerBank, SloController};
use upanns_serve::{SearchService, ServiceConfig, ServiceReport};

fn fixture() -> (SyntheticDataset, IvfPqIndex) {
    let dataset = SyntheticSpec::sift_like(1200)
        .with_clusters(12)
        .with_seed(41)
        .generate_with_meta();
    let index = IvfPqIndex::train(
        &dataset.vectors,
        &IvfPqParams::new(12, 16).with_train_size(600),
        3,
    );
    (dataset, index)
}

/// `stream` with its arrivals respaced to one every `gap` seconds (a power
/// of two), keeping their order and so the tenant interleave.
fn respaced(mut stream: QueryStream, gap: f64) -> QueryStream {
    stream.arrivals = (0..stream.len()).map(|i| i as f64 * gap).collect();
    stream
}

/// FNV-1a over a sequence of 64-bit words.
fn hash(words: impl IntoIterator<Item = u64>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn slo(s: Option<f64>) -> String {
    s.map_or_else(|| "none".to_string(), bits)
}

fn batcher(c: BatchFormerConfig) -> String {
    format!("{}/{}", c.max_batch, bits(c.max_delay_s))
}

fn neighbors(results: &[Vec<Neighbor>]) -> String {
    hash(results.iter().flat_map(|r| {
        std::iter::once(r.len() as u64).chain(
            r.iter()
                .flat_map(|n| [n.id, u64::from(n.distance.to_bits())]),
        )
    }))
}

/// One `name value` line per report field, tenants' fields prefixed by
/// their name.
fn pin(r: &ServiceReport) -> Vec<String> {
    let mut lines = vec![
        format!("engine {}", r.engine),
        format!("policy {}", r.policy),
        format!("slo_p99_s {}", slo(r.slo_p99_s)),
        format!("controller_adjustments {}", r.controller_adjustments),
        format!("final_batcher {}", batcher(r.final_batcher)),
        format!("completed {}", r.completed),
        format!("shed {}", r.shed),
        format!(
            "cache {} {} {}",
            r.cache_hits, r.cache_misses, r.cache_invalidated
        ),
        format!(
            "closed {} {}",
            r.size_closed_batches, r.deadline_closed_batches
        ),
        format!("chunks {} {}", r.dispatched_chunks, r.split_batches),
        format!("engine_busy_s {}", bits(r.engine_busy_s)),
        format!("makespan_s {}", bits(r.makespan_s)),
        format!(
            "latencies_s {}",
            hash(r.latencies_s.iter().map(|l| l.to_bits()))
        ),
        format!("results {}", neighbors(&r.results)),
        format!(
            "outcomes {}",
            hash(
                r.outcomes
                    .iter()
                    .flat_map(|(at, l)| [at.to_bits(), l.map_or(u64::MAX, f64::to_bits)])
            )
        ),
        format!("replicas {} {} {}", r.degraded, r.hedged, r.redispatched),
        format!("scale {} {}", r.scale_events, bits(r.migration_s)),
    ];
    for t in &r.tenants {
        lines.extend([
            format!(
                "{} id {} weight {} slo {}",
                t.name,
                t.id,
                t.weight,
                slo(t.slo_p99_s)
            ),
            format!("{} completed {} shed {}", t.name, t.completed, t.shed),
            format!(
                "{} latencies_s {}",
                t.name,
                hash(t.latencies_s.iter().map(|l| l.to_bits()))
            ),
            format!("{} final_batcher {}", t.name, batcher(t.final_batcher)),
        ]);
    }
    lines
}

#[test]
fn a_one_tenant_replay_with_repeats_reports_the_same_bits() {
    let (dataset, index) = fixture();
    let stream = respaced(
        StreamSpec::new(240, 1.0)
            .with_repeat_fraction(0.4)
            .with_slo_p99(4e-3)
            .generate(&dataset),
        1.0 / 4096.0,
    );
    let config = ServiceConfig {
        batcher: BatchFormerConfig {
            max_batch: 6,
            max_delay_s: 1.0 / 512.0,
        },
        ..ServiceConfig::default()
    };
    let mut service =
        SearchService::new(CpuFaissEngine::new(&index).with_work_scale(1200.0), config)
            .with_policy(Box::new(SloController::new(4e-3, config.batcher)));
    let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
    // What the stream is for: cache hits, some of them waiting on an answer
    // still in flight (an engine answer takes far longer than 10 µs, a hit
    // on a ready entry far less), and an adaptive window that moved.
    let instant = report.latencies_s.iter().filter(|&&l| l <= 1e-5).count() as u64;
    assert!(0 < instant && instant < report.cache_hits);
    assert!(report.controller_adjustments > 0);
    assert_eq!(
        pin(&report),
        [
            "engine Faiss-CPU",
            "policy adaptive-slo",
            "slo_p99_s 3f70624dd2f1a9fc",
            "controller_adjustments 5",
            "final_batcher 6/3f51b1d92b7fe08b",
            "completed 240",
            "shed 0",
            "cache 85 155 0",
            "closed 8 29",
            "chunks 37 0",
            "engine_busy_s 3facbb3922974fc6",
            "makespan_s 3fae554efdd36be2",
            "latencies_s 32a77328384873d4",
            "results 9882ed75451b33fd",
            "outcomes 29984013e4390625",
            "replicas 0 0 0",
            "scale 0 0000000000000000",
            "default id t0 weight 1 slo 3f70624dd2f1a9fc",
            "default completed 240 shed 0",
            "default latencies_s 32a77328384873d4",
            "default final_batcher 6/3f51b1d92b7fe08b",
        ]
    );
}

#[test]
fn a_chunked_two_tenant_replay_with_a_small_queue_reports_the_same_bits() {
    let (dataset, index) = fixture();
    let spec = MultiTenantSpec::new()
        .with_tenant(
            TenantSpec::new(
                TenantId(1),
                StreamSpec::new(60, 1.0)
                    .with_repeat_fraction(0.2)
                    .with_slo_p99(4e-3),
            )
            .with_name("tight")
            .with_weight(2)
            .with_option_mix(vec![(10, 4)]),
        )
        .with_tenant(
            TenantSpec::new(TenantId(2), StreamSpec::new(180, 3.0).with_slo_p99(1e-2))
                .with_name("bulk")
                .with_option_mix(vec![(10, 8), (20, 8)]),
        );
    let stream = respaced(spec.generate(&dataset), 1.0 / 8192.0);
    let bank = ControllerBank::for_profiles(&stream.tenant_profiles, BatchFormerConfig::default());
    let config = ServiceConfig {
        queue_capacity: 16,
        batcher: BatchFormerConfig {
            max_batch: 32,
            max_delay_s: 1.0 / 256.0,
        },
        max_chunk: Some(8),
        ..ServiceConfig::default()
    };
    let mut service = SearchService::new(CpuFaissEngine::new(&index).with_work_scale(40.0), config)
        .with_policy(Box::new(bank));
    let report = service.replay_planned(&stream);
    assert!(report.shed > 0 && report.split_batches > 0 && report.cache_hits > 0);
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(
        pin(&report),
        [
            "engine Faiss-CPU",
            "policy adaptive-tenant-chunked",
            "slo_p99_s 3f70624dd2f1a9fc",
            "controller_adjustments 7",
            "final_batcher 32/3f60624dd2f1a9fc",
            "completed 209",
            "shed 31",
            "cache 9 231 0",
            "closed 0 36",
            "chunks 40 4",
            "engine_busy_s 3f73f7ab58746cfb",
            "makespan_s 3f9f0d45cac7161e",
            "latencies_s c17f459e84e52c64",
            "results 7ddd3713943ecbdf",
            "outcomes 566def76794b9539",
            "replicas 0 0 0",
            "scale 0 0000000000000000",
            "tight id t1 weight 2 slo 3f70624dd2f1a9fc",
            "tight completed 52 shed 8",
            "tight latencies_s a895bc5883e2d472",
            "tight final_batcher 256/3f56f0068db8bac7",
            "bulk id t2 weight 1 slo 3f847ae147ae147b",
            "bulk completed 157 shed 23",
            "bulk latencies_s be871f87f5ebf623",
            "bulk final_batcher 256/3f67c1bda5119ce1",
        ]
    );
}
