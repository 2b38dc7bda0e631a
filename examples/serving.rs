//! Serving walkthrough: a stream of heterogeneous queries through the
//! `upanns-serve` front-end.
//!
//! The other examples answer *batches* where every query shares one
//! `nprobe`/`k`. Production traffic is a stream of single queries with
//! per-query parameters: an interactive RAG tier wants small `k` and a tight
//! latency budget, an offline re-ranking tier wants large `k` and tolerates
//! delay. This example
//!
//! * builds an UpANNS engine,
//! * gives each traffic class its own per-query `k` and `nprobe`,
//! * replays a timed [`QueryStream`] through [`SearchService`]
//!   (admission queue → dynamic batch former → LRU result cache → engine),
//! * and reports sustained QPS, latency percentiles, and cache efficiency.
//!
//! Run with:
//! ```text
//! cargo run --release --example serving
//! ```

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::SyntheticSpec;
use annkit::workload::{MultiTenantSpec, StreamSpec, TenantId, TenantSpec, WorkloadSpec};
use baselines::engine::QueryOptions;
use pim_sim::config::PimConfig;
use upanns::builder::UpAnnsBuilder;
use upanns::config::UpAnnsConfig;
use upanns_serve::batcher::BatchFormerConfig;
use upanns_serve::controller::{ControllerBank, SloController};
use upanns_serve::{SearchService, ServiceConfig};

fn main() {
    // ------------------------------------------------------------------
    // 1. Offline phase: dataset, index, engine (see examples/quickstart.rs).
    // ------------------------------------------------------------------
    let n = 8_000;
    println!("Building the fixture ({n} vectors) ...");
    let dataset = SyntheticSpec::sift_like(n)
        .with_clusters(64)
        .with_seed(3)
        .generate_with_meta();
    let index = IvfPqIndex::train(
        &dataset.vectors,
        &IvfPqParams::new(512, 16).with_train_size(3_000),
        1,
    );
    let history = WorkloadSpec::new(1_500)
        .with_seed(4)
        .generate(&dataset)
        .queries;
    // Modeled size chosen for per-cluster parity with the reference
    // billion-scale configuration (see the `serve` binary).
    let scale = 1.25e8 / n as f64;
    let engine = UpAnnsBuilder::new(&index)
        .with_config(UpAnnsConfig::upanns().with_work_scale(scale))
        .with_pim_config(PimConfig::with_dpus(896))
        .with_history(&history, 8)
        .build();

    // ------------------------------------------------------------------
    // 2. The traffic: a Poisson stream where 30 % of queries repeat earlier
    //    ones (RAG streams re-ask popular questions), with three traffic
    //    classes mixing per-query k and nprobe.
    // ------------------------------------------------------------------
    let stream = StreamSpec::new(600, 300.0)
        .with_repeat_fraction(0.3)
        .generate(&dataset);
    println!(
        "Replaying {} queries over {:.1} s of simulated time ({:.0} offered QPS) ...",
        stream.len(),
        stream.duration(),
        stream.offered_qps()
    );

    let options_of = |i: usize| -> QueryOptions {
        match i % 3 {
            // Interactive tier: k=10 at a narrow probe width.
            0 => QueryOptions::new(10, 6),
            // Standard tier: k=10, nprobe=8.
            1 => QueryOptions::new(10, 8),
            // Re-ranking tier: deep k=50 at full probe width.
            _ => QueryOptions::new(50, 16),
        }
    };

    // ------------------------------------------------------------------
    // 3. The service: bounded admission, dynamic batching, result cache.
    // ------------------------------------------------------------------
    let mut service = SearchService::new(
        engine,
        ServiceConfig {
            queue_capacity: 512,
            batcher: BatchFormerConfig {
                max_batch: 128,
                max_delay_s: 250e-3,
            },
            cache_capacity: 256,
            cache_lookup_s: 2e-6,
            slo_p99_s: None,
            max_chunk: None,
        },
    );
    let report = service.replay(&stream, options_of);

    println!();
    println!("Engine:          {}", report.engine);
    println!(
        "Completed:       {} of {} ({} shed at admission)",
        report.completed,
        stream.len(),
        report.shed
    );
    println!("Sustained QPS:   {:.1}", report.sustained_qps());
    println!(
        "Latency:         p50 {:.1} ms | p99 {:.1} ms | mean {:.1} ms",
        report.p50() * 1e3,
        report.p99() * 1e3,
        report.mean_latency() * 1e3
    );
    println!(
        "Batches:         {} total ({} size-closed, {} deadline-closed), {:.1} queries/batch",
        report.batches(),
        report.size_closed_batches,
        report.deadline_closed_batches,
        report.mean_batch_size()
    );
    println!(
        "Result cache:    {:.1}% hit rate ({} hits / {} lookups)",
        report.cache_hit_rate() * 100.0,
        report.cache_hits,
        report.cache_hits + report.cache_misses
    );

    // Per-class answer sizes prove per-query k was honored end to end.
    let k_of = |i: usize| report.results[i].len();
    let interactive = (0..stream.len())
        .step_by(3)
        .find(|&i| !report.results[i].is_empty());
    let deep = (2..stream.len())
        .step_by(3)
        .find(|&i| !report.results[i].is_empty());
    if let (Some(a), Some(b)) = (interactive, deep) {
        println!(
            "Per-query k:     interactive query #{a} got {} neighbors, re-ranking query #{b} got {}",
            k_of(a),
            k_of(b)
        );
    }

    // ------------------------------------------------------------------
    // 4. The SLO controller: same engine and traffic, but the batching
    //    window is chosen by a closed loop targeting a p99 SLO instead of a
    //    hand-tuned constant (see the `serve` binary for the full
    //    fixed-vs-adaptive sweep across every engine, multihost included).
    // ------------------------------------------------------------------
    let slo_s = 4.0;
    let engine = service.into_engine();
    let mut adaptive = SearchService::new(
        engine,
        ServiceConfig {
            queue_capacity: 512,
            batcher: BatchFormerConfig {
                max_batch: 128,
                max_delay_s: 250e-3,
            },
            cache_capacity: 256,
            cache_lookup_s: 2e-6,
            slo_p99_s: Some(slo_s),
            max_chunk: None,
        },
    )
    .with_policy(Box::new(SloController::for_slo(slo_s)));
    let adaptive_report = adaptive.replay(&stream, options_of);
    println!();
    println!(
        "SLO controller:  policy '{}' targeting p99 <= {:.0} ms",
        adaptive_report.policy,
        slo_s * 1e3
    );
    println!(
        "Attainment:      p99 {:.1} ms | {:.1}% of queries missed the SLO | SLO {}",
        adaptive_report.p99() * 1e3,
        adaptive_report.slo_miss_fraction() * 100.0,
        if adaptive_report.meets_slo() {
            "met"
        } else {
            "MISSED"
        }
    );
    println!(
        "Controller:      {} adjustments, settled on max_batch={} / max_delay {:.1} ms",
        adaptive_report.controller_adjustments,
        adaptive_report.final_batcher.max_batch,
        adaptive_report.final_batcher.max_delay_s * 1e3
    );

    // ------------------------------------------------------------------
    // 5. Multi-tenant serving: two traffic classes with their own rates,
    //    option mixes, weights and SLOs share the engine. A ControllerBank
    //    gives each tenant its own SLO-steered batching window, and the
    //    report breaks attainment down per tenant (see the `serve` binary's
    //    --tenants flag for the committed two-tenant benchmark).
    // ------------------------------------------------------------------
    let tenant_stream = MultiTenantSpec::new()
        .with_tenant(
            TenantSpec::new(TenantId(1), StreamSpec::new(120, 6.0).with_slo_p99(2.0))
                .with_name("interactive")
                .with_weight(2)
                .with_option_mix(vec![(10, 4)]),
        )
        .with_tenant(
            TenantSpec::new(TenantId(2), StreamSpec::new(360, 18.0).with_slo_p99(20.0))
                .with_name("bulk")
                .with_option_mix(vec![(10, 8), (20, 8)]),
        )
        .generate(&dataset);
    let bank =
        ControllerBank::for_profiles(&tenant_stream.tenant_profiles, BatchFormerConfig::default());
    let mut tenant_service = SearchService::new(
        adaptive.into_engine(),
        ServiceConfig {
            queue_capacity: 512,
            batcher: BatchFormerConfig::default(),
            cache_capacity: 256,
            cache_lookup_s: 2e-6,
            slo_p99_s: None, // each tenant is measured against its own SLO
            // Priority-chunked dispatch: bulk batches hit the engine in
            // chunks of ≤ 32 queries, earliest SLO deadline first, so the
            // interactive tenant never waits out a whole bulk batch.
            max_chunk: Some(32),
        },
    )
    .with_policy(Box::new(bank));
    let tenant_report = tenant_service.replay_planned(&tenant_stream);
    println!();
    println!(
        "Multi-tenant:    policy '{}', {} tenants, {} queries ({} shed)",
        tenant_report.policy,
        tenant_report.tenants.len(),
        tenant_report.completed + tenant_report.shed,
        tenant_report.shed,
    );
    println!(
        "Dispatch:        {} batches hit the engine as {} chunks ({} bulk batches split) — \
         the interactive tenant never waits out a whole bulk batch",
        tenant_report.batches(),
        tenant_report.dispatched_chunks,
        tenant_report.split_batches,
    );
    for t in &tenant_report.tenants {
        println!(
            "  {:<12} weight {} | SLO {:>6.0} ms | p99 {:>8.1} ms | miss {:>5.1}% | window {:>7.1} ms | {}",
            t.name,
            t.weight,
            t.slo_p99_s.unwrap_or(f64::NAN) * 1e3,
            t.p99() * 1e3,
            t.slo_miss_fraction() * 100.0,
            t.final_batcher.max_delay_s * 1e3,
            if t.meets_slo() { "SLO met" } else { "SLO MISSED" },
        );
    }
}
