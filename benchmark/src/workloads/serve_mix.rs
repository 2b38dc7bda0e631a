//! `serve-mix` — every serve module at work.
//!
//! Open loop on the replay clock, fixture S, UpANNS engine, the committed
//! head-of-line tenant mix scaled to 4 000 queries (`tight`: 2 QPS, 400
//! queries, SLO 700 ms, weight 2, options 10x8; `bulk`: 18 QPS, 3 600
//! queries, SLO 30 s, weight 1, options 10x4 + 10x8 + 20x8), repeat
//! fraction 0.25 against a 1 024-entry cache (about 3 000 distinct queries,
//! so it evicts), `ControllerBank` and `max_chunk = 32`. The timed phase
//! replays the mix at its own rate; the traced run also replays it at 0.5x,
//! 1.5x and 2x for `modeled_goodput_qps`.

use super::{
    emit_ivf_timings, emit_mram, emit_offline_parts, emit_pim_round, emit_recall,
    emit_reference_speedup, emit_replay, realisation_seed, reference_request, replay_counts,
    replay_phase, REALISATIONS,
};
use crate::adapter::{Adapter, SinkHandle};
use crate::clock;
use crate::fixtures::{service_config, Fixture, FIXED_BATCHER, S};
use crate::record::Ctx;
use crate::stats;
use annkit::synthetic::SyntheticDataset;
use annkit::workload::{
    MultiTenantSpec, QueryStream, StreamSpec, TenantId, TenantSpec, WorkloadSpec,
};
use baselines::engine::AnnEngine;
use std::cell::RefCell;
use std::collections::BTreeMap;
use upanns::engine::UpAnnsEngine;
use upanns_serve::controller::ControllerBank;
use upanns_serve::service::{SearchService, ServiceReport};

const TIGHT: TenantId = TenantId(1);
const BULK: TenantId = TenantId(2);
const TIGHT_QUERIES: usize = 400;
const BULK_QUERIES: usize = 3_600;
const TIGHT_QPS: f64 = 2.0;
const BULK_QPS: f64 = 18.0;
const REPEAT: f64 = 0.25;
const CACHE: usize = 1_024;
const MAX_CHUNK: usize = 32;
/// The rates the goodput search replays, as multiples of the mix's own.
const RATE_FACTORS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// The tenant mix at `factor` times its committed rate. The same seed draws
/// the same queries, repeats and exponential gaps at every factor, so only
/// the time axis is compressed.
fn mix(
    data: &SyntheticDataset,
    seed: u64,
    factor: f64,
    tight_n: usize,
    bulk_n: usize,
) -> QueryStream {
    let tenant = |n: usize, qps: f64, slo_s: f64| {
        StreamSpec::new(n, qps * factor)
            .with_workload(WorkloadSpec::new(n).with_seed(seed))
            .with_repeat_fraction(REPEAT)
            .with_slo_p99(slo_s)
    };
    MultiTenantSpec::new()
        .with_tenant(
            TenantSpec::new(TIGHT, tenant(tight_n, TIGHT_QPS, 0.7))
                .with_name("tight")
                .with_weight(2)
                .with_option_mix(vec![(10, 8)]),
        )
        .with_tenant(
            TenantSpec::new(BULK, tenant(bulk_n, BULK_QPS, 30.0))
                .with_name("bulk")
                .with_weight(1)
                .with_option_mix(vec![(10, 4), (10, 8), (20, 8)]),
        )
        .generate(data)
}

fn service<E: AnnEngine>(engine: E, stream: &QueryStream) -> SearchService<E> {
    SearchService::new(engine, service_config(CACHE, Some(MAX_CHUNK))).with_policy(Box::new(
        ControllerBank::for_profiles(&stream.tenant_profiles, FIXED_BATCHER),
    ))
}

/// Whether a replay kept up: every tenant keeps at least 99 % of its
/// *offered* queries inside its own SLO (a shed query misses), and at the
/// last arrival no more than the one chunk in service is waiting on the
/// engine — counted as queries whose batching window had already closed
/// but whose answer had not been delivered.
fn sustains(report: &ServiceReport, stream: &QueryStream) -> bool {
    let slo_ok = report.tenants.iter().all(|t| t.slo_miss_fraction() <= 0.01);
    let end = stream.arrivals.last().copied().unwrap_or(0.0);
    // Outcomes come in completion order; an arrival time (copied bit for
    // bit from the stream) finds the query's tenant again.
    let tenant_of: BTreeMap<u64, TenantId> = stream
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| (a.to_bits(), stream.tenant(i)))
        .collect();
    let waiting = report
        .outcomes
        .iter()
        .filter(|&&(arrival, latency)| {
            let window = tenant_of
                .get(&arrival.to_bits())
                .and_then(|&t| report.tenant(t))
                .map_or(0.0, |t| t.final_batcher.max_delay_s);
            arrival + window <= end && latency.is_some_and(|l| arrival + l > end)
        })
        .count();
    slo_ok && waiting <= MAX_CHUNK
}

struct State {
    fixture: Fixture,
    engine: UpAnnsEngine,
    streams: Vec<QueryStream>,
}

pub fn run(ctx: &mut Ctx) {
    let tight_n = ctx.scaled(TIGHT_QUERIES);
    let bulk_n = ctx.scaled(BULK_QUERIES);
    let queries = tight_n + bulk_n;
    let seed = ctx.seed;
    let State {
        fixture,
        engine,
        streams,
    } = ctx.setup(3, |times| {
        let fixture = Fixture::build(S, times);
        let engine = fixture.upanns(S.work_scale(), 64, times);
        let (streams, generate_s) = clock::timed(|| {
            (0..REALISATIONS)
                .map(|i| {
                    mix(
                        &fixture.dataset,
                        realisation_seed(seed, i),
                        1.0,
                        tight_n,
                        bulk_n,
                    )
                })
                .collect()
        });
        times
            .entry("annkit.workload.generate_s")
            .or_default()
            .push(generate_s);
        State {
            fixture,
            engine,
            streams,
        }
    });

    let engine = RefCell::new(Some(engine));
    let outcome = replay_phase(
        ctx,
        queries,
        REALISATIONS,
        |sink, i| {
            let engine = engine
                .borrow_mut()
                .take()
                .expect("the engine returns after every replay");
            service(Adapter::new(engine, sink.clone()), &streams[i])
        },
        |service, i| service.replay_planned(&streams[i]),
        |service| *engine.borrow_mut() = Some(service.into_engine().into_inner()),
    );
    let mut engine = engine
        .into_inner()
        .expect("the last replay returned the engine");

    emit_replay(ctx, &outcome, queries);
    emit_recall(ctx, &outcome, &streams, &fixture.dataset.vectors);
    let reference = reference_request(ctx, &fixture.dataset);
    let pim_s = engine.execute(&reference).seconds;
    emit_reference_speedup(ctx, &fixture.index, S.work_scale(), &reference, pim_s);

    if !ctx.trace {
        return;
    }
    let tenant = |id: TenantId| outcome.reports.iter().filter_map(move |r| r.tenant(id));
    let tight_latencies = stats::sorted(
        tenant(TIGHT)
            .flat_map(|t| t.latencies_s.iter().copied())
            .collect(),
    );
    ctx.emit(
        "upanns-serve.tenant.tight_latency_p95_ms",
        stats::percentile(&tight_latencies, 95.0) * 1e3,
        tight_latencies.len(),
    );
    let tight_offered: usize = tenant(TIGHT).map(|t| t.completed + t.shed).sum();
    let tight_missed: f64 = tenant(TIGHT)
        .map(|t| t.slo_miss_fraction() * (t.completed + t.shed) as f64)
        .sum();
    ctx.emit(
        "upanns-serve.tenant.tight_attainment",
        1.0 - tight_missed / tight_offered.max(1) as f64,
        tight_offered,
    );
    let bulk_latencies = stats::sorted(
        tenant(BULK)
            .flat_map(|t| t.latencies_s.iter().copied())
            .collect(),
    );
    ctx.emit(
        "upanns-serve.tenant.bulk_latency_p99_ms",
        stats::percentile(&bulk_latencies, 99.0) * 1e3,
        bulk_latencies.len(),
    );
    emit_mram(ctx, &engine);

    // The goodput search, on the first realisation: the highest replayed
    // rate the deployment sustains.
    let span = ctx.tracer.begin("goodput_search", None);
    let mut goodput = 0.0f64;
    let mut engine = Some(engine);
    for factor in RATE_FACTORS {
        let leg_stream;
        let (leg_report, leg) = if factor == 1.0 {
            (outcome.reports[0].clone(), &streams[0])
        } else {
            leg_stream = mix(&fixture.dataset, seed, factor, tight_n, bulk_n);
            let mut svc = service(
                Adapter::new(
                    engine.take().expect("engine threads through the legs"),
                    SinkHandle::new(false),
                ),
                &leg_stream,
            );
            let leg_span = ctx.tracer.begin("replay", span);
            let r = svc.replay_planned(&leg_stream);
            ctx.tracer.end(leg_span, &replay_counts(&r));
            engine = Some(svc.into_engine().into_inner());
            ctx.count(queries, 0);
            ctx.check(r.completed + r.shed == queries, || {
                format!("the {factor}x leg does not conserve")
            });
            (r, &leg_stream)
        };
        if sustains(&leg_report, leg) {
            goodput = goodput.max(factor * (TIGHT_QPS + BULK_QPS));
        }
    }
    ctx.tracer.end(span, &[("goodput_qps", goodput)]);
    ctx.emit("modeled_goodput_qps", goodput, RATE_FACTORS.len());

    let span = ctx.tracer.begin("direct_timings", None);
    emit_ivf_timings(ctx, &fixture.index, reference.queries());
    emit_pim_round(ctx);
    emit_offline_parts(ctx, &fixture);
    ctx.tracer.end(span, &[]);
}
