//! `serve-light` — an idle engine behind the batching controller.
//!
//! Open loop on the replay clock, fixture S, Faiss-CPU engine,
//! `SearchService::replay`, single tenant, 12 QPS Poisson, 4 000 queries,
//! repeat fraction 0 (the cache is bypassed), p99 SLO 6 s,
//! `SloController::for_slo`. Engine utilisation is about 2 %, so latency is
//! whatever the batching policy adds.

use super::{
    emit_ivf_timings, emit_recall, emit_reference_speedup, emit_replay, emit_serve_types,
    reference_request, replay_phase, Traffic, REALISATIONS,
};
use crate::adapter::Adapter;
use crate::clock;
use crate::fixtures::{options_of, pim_engine, service_config, Fixture, DPUS, S};
use crate::record::Ctx;
use annkit::workload::QueryStream;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::AnnEngine;
use std::cell::RefCell;
use upanns::config::UpAnnsConfig;
use upanns_serve::controller::SloController;
use upanns_serve::service::SearchService;

const QUERIES: usize = 4_000;
const QPS: f64 = 12.0;
const SLO_S: f64 = 6.0;

struct State {
    fixture: Fixture,
    streams: Vec<QueryStream>,
}

pub fn run(ctx: &mut Ctx) {
    let queries = ctx.scaled(QUERIES);
    let seed = ctx.seed;
    let State { fixture, streams } = ctx.setup(3, |times| {
        let fixture = Fixture::build(S, times);
        let traffic = Traffic {
            queries,
            qps: QPS,
            repeat: 0.0,
            slo_s: SLO_S,
        };
        let (streams, generate_s) =
            clock::timed(|| traffic.streams(&fixture.dataset, seed, REALISATIONS));
        times
            .entry("annkit.workload.generate_s")
            .or_default()
            .push(generate_s);
        State { fixture, streams }
    });

    // Shared by the prepare and recycle closures, which never run at once.
    let engine = RefCell::new(Some(
        CpuFaissEngine::new(&fixture.index).with_work_scale(S.work_scale()),
    ));
    let outcome = replay_phase(
        ctx,
        queries,
        REALISATIONS,
        |sink, _| {
            let engine = engine
                .borrow_mut()
                .take()
                .expect("the engine returns after every replay");
            SearchService::new(
                Adapter::new(engine, sink.clone()),
                service_config(512, None),
            )
            .with_policy(Box::new(SloController::for_slo(SLO_S)))
        },
        |service, i| service.replay(&streams[i], options_of),
        |service| *engine.borrow_mut() = Some(service.into_engine().into_inner()),
    );

    emit_replay(ctx, &outcome, queries);
    ctx.emit(
        "baselines.cpu.execute_host_ms",
        outcome.totals.host_s * 1e3 / outcome.totals.calls.max(1) as f64,
        outcome.totals.calls,
    );
    emit_recall(ctx, &outcome, &streams, &fixture.dataset.vectors);
    let mut pim = pim_engine(
        &fixture.index,
        &fixture.history,
        UpAnnsConfig::upanns(),
        DPUS,
        S.work_scale(),
        64,
    );
    let reference = reference_request(ctx, &fixture.dataset);
    let pim_s = pim.execute(&reference).seconds;
    emit_reference_speedup(ctx, &fixture.index, S.work_scale(), &reference, pim_s);

    if ctx.trace {
        let span = ctx.tracer.begin("direct_timings", None);
        emit_ivf_timings(ctx, &fixture.index, reference.queries());
        emit_serve_types(ctx, &streams[0].batch.queries);
        ctx.tracer.end(span, &[]);
    }
}
