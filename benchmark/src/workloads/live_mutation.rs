//! `live-mutation` — reads beside writes.
//!
//! Fixture M, UpANNS engine serving a `SnapshotTimeline` from
//! `plan_live_index` (`MutationSpec` upsert 24/s + delete 8/s, refresh 8 s,
//! the `serve` binary's 256 KiB/s compaction policy), 2 000 queries at
//! 50 QPS (a 40 s stream: six snapshots, each a full engine-state rebuild
//! at set-up), repeat 0.25, `SloController`, p99 SLO 6 s. The realisations
//! are independent query streams over the one mutation timeline. After the
//! timed phase every served answer is re-executed at its own arrival on the
//! engine (zero stale answers allowed) and scored against exact flat search
//! over the corpus as it stood at that arrival.

use super::{
    emit_mram, emit_offline_parts, emit_reference_speedup, emit_replay, reference_request,
    replay_phase, Traffic, REALISATIONS,
};
use crate::adapter::Adapter;
use crate::clock;
use crate::fixtures::{self, options_of, service_config, Fixture, M};
use crate::micro;
use crate::record::Ctx;
use annkit::distance::l2_squared;
use annkit::topk::{Neighbor, TopK};
use annkit::workload::{MutationOp, MutationSpec, MutationStream, QueryStream, TenantId};
use baselines::engine::{AnnEngine, SearchRequest};
use std::cell::RefCell;
use std::collections::BTreeMap;
use upanns::compaction::{plan_live_index, CompactionPolicy, LiveIndexPlan};
use upanns::engine::UpAnnsEngine;
use upanns_serve::controller::SloController;
use upanns_serve::service::{SearchService, ServiceReport};

const QUERIES: usize = 2_000;
const QPS: f64 = 50.0;
const REPEAT: f64 = 0.25;
const SLO_S: f64 = 6.0;
const UPSERT_QPS: f64 = 24.0;
const DELETE_QPS: f64 = 8.0;
const REFRESH_S: f64 = 8.0;

/// The `serve` binary's compaction policy: the default skew trigger and
/// cooldown but a deliberately slow modeled fold, so arrivals land inside
/// compaction windows and are charged the stall.
fn compaction_policy() -> CompactionPolicy {
    CompactionPolicy {
        bytes_per_second: 256.0 * 1024.0,
        ..CompactionPolicy::default()
    }
}

struct State {
    fixture: Fixture,
    engine: UpAnnsEngine,
    streams: Vec<QueryStream>,
    events: MutationStream,
    plan: LiveIndexPlan,
}

pub fn run(ctx: &mut Ctx) {
    let queries = ctx.scaled(QUERIES);
    let seed = ctx.seed;
    let State {
        fixture,
        engine,
        streams,
        events,
        plan,
    } = ctx.setup(2, |times| {
        let fixture = Fixture::build(M, times);
        let mut engine = fixture.upanns(M.work_scale(), 64, times);
        let ((streams, events), generate_s) = clock::timed(|| {
            let traffic = Traffic {
                queries,
                qps: QPS,
                repeat: REPEAT,
                slo_s: SLO_S,
            };
            let streams = traffic.streams(&fixture.dataset, seed, REALISATIONS);
            let horizon = streams
                .iter()
                .map(QueryStream::duration)
                .fold(0.0, f64::max);
            let events = MutationSpec::new(horizon)
                .with_tenant(TenantId::DEFAULT, UPSERT_QPS, DELETE_QPS)
                .with_seed(seed ^ 0x11FE_57A6)
                .generate(&fixture.dataset, fixture.index.ntotal());
            (streams, events)
        });
        times
            .entry("annkit.workload.generate_s")
            .or_default()
            .push(generate_s);
        let (plan, plan_s) = clock::timed(|| {
            plan_live_index(&fixture.index, &events, REFRESH_S, &compaction_policy())
        });
        times
            .entry("upanns.compaction.plan_host_s")
            .or_default()
            .push(plan_s);
        let (accepted, install_s) = clock::timed(|| engine.install_timeline(plan.timeline.clone()));
        assert!(accepted, "the UpANNS engine accepts snapshot timelines");
        times
            .entry("upanns.engine.install_timeline_s")
            .or_default()
            .push(install_s);
        State {
            fixture,
            engine,
            streams,
            events,
            plan,
        }
    });

    let engine = RefCell::new(Some(engine));
    let outcome = replay_phase(
        ctx,
        queries,
        REALISATIONS,
        |sink, _| {
            let engine = engine
                .borrow_mut()
                .take()
                .expect("the engine returns after every replay");
            let adapter = Adapter::new(engine, sink.clone()).with_timeline_preinstalled();
            let (service, accepted) = SearchService::new(adapter, service_config(512, None))
                .with_live_index(&plan.timeline);
            assert!(
                accepted,
                "the adapter vouches for the preinstalled timeline"
            );
            service.with_policy(Box::new(SloController::for_slo(SLO_S)))
        },
        |service, i| service.replay(&streams[i], options_of),
        |service| *engine.borrow_mut() = Some(service.into_engine().into_inner()),
    );
    let mut engine = engine
        .into_inner()
        .expect("the last replay returned the engine");

    emit_replay(ctx, &outcome, queries);
    let span = ctx.tracer.begin("audit", None);
    let recall_stride = (queries * REALISATIONS / ctx.scaled(600)).max(1);
    let (mut stale, mut recall_sum, mut recall_n) = (0usize, 0.0, 0usize);
    for (i, (report, stream)) in outcome.reports.iter().zip(&streams).enumerate() {
        // Every answer of the first realisation, every fourth of the others.
        let stride = if i == 0 { 1 } else { 4 };
        stale += stale_answers(report, &mut engine, stream, stride);
        let (sum, n) = recall_at_arrival(report, &fixture, stream, &events, recall_stride);
        recall_sum += sum;
        recall_n += n;
    }
    ctx.tracer.end(span, &[("stale_served", stale as f64)]);
    ctx.count(0, stale);
    ctx.check(stale == 0, || {
        format!("{stale} served answers differ from a re-execution at their own arrival")
    });
    ctx.emit(
        "recall_at_10",
        recall_sum / recall_n.max(1) as f64,
        recall_n,
    );
    let reference = reference_request(ctx, &fixture.dataset);
    let pim_s = engine.execute(&reference).seconds;
    emit_reference_speedup(ctx, &fixture.index, M.work_scale(), &reference, pim_s);

    if !ctx.trace {
        return;
    }
    ctx.emit("upanns.compaction.count", plan.compactions.len() as f64, 1);
    let moved: usize = plan.compactions.iter().map(|c| c.stats.moved_bytes).sum();
    ctx.emit(
        "upanns.compaction.moved_mb",
        moved as f64 / (1024.0 * 1024.0),
        plan.compactions.len(),
    );
    emit_mram(ctx, &engine);
    let span = ctx.tracer.begin("direct_timings", None);
    let t = ctx.in_own_phase(|| micro::mutation(&fixture.index, &events, reference.queries()));
    ctx.emit("annkit.mutation.upsert_us", t.upsert_us, events.upserts());
    ctx.emit("annkit.mutation.delete_us", t.delete_us, events.deletes());
    ctx.emit("annkit.mutation.snapshot_us", t.snapshot_us, 5);
    ctx.emit("annkit.mutation.compact_ms", t.compact_ms, 1);
    ctx.emit(
        "annkit.mutation.snapshot_search_us",
        t.snapshot_search_us,
        5,
    );
    emit_offline_parts(ctx, &fixture);
    ctx.tracer
        .end(span, &[("snapshots", plan.timeline.entries().len() as f64)]);
}

/// Queries per oracle request of the audit: the batch capacity the engine
/// was built for.
const AUDIT_BATCH: usize = 64;

/// How many of every `stride`-th served answer of one realisation differ
/// from a re-execution at their own arrival. The oracle requests hold
/// [`AUDIT_BATCH`] queries and have nothing to do with how the service
/// batched them: an answer is a pure function of query and arrival.
fn stale_answers(
    report: &ServiceReport,
    oracle: &mut UpAnnsEngine,
    stream: &QueryStream,
    stride: usize,
) -> usize {
    let served: Vec<usize> = (0..stream.len())
        .step_by(stride)
        .filter(|&i| !report.results[i].is_empty()) // shed
        .collect();
    let mut stale = 0;
    for members in served.chunks(AUDIT_BATCH) {
        let request = SearchRequest::new(
            stream.batch.queries.gather(members),
            members.iter().map(|&i| options_of(i)).collect(),
        )
        .with_arrivals(members.iter().map(|&i| stream.arrivals[i]).collect());
        let expect = oracle.execute(&request).results;
        stale += members
            .iter()
            .zip(&expect)
            .filter(|(&i, e)| !fixtures::same_ids(&report.results[i], e))
            .count();
    }
    stale
}

/// Recall@10 of every `stride`-th served answer of one realisation against
/// exact search over the vectors live at its arrival, as `(sum, answers)`.
/// Arrivals and mutation events are walked together, so that at each scored
/// query `corpus` is exactly that set.
fn recall_at_arrival(
    report: &ServiceReport,
    fixture: &Fixture,
    stream: &QueryStream,
    events: &MutationStream,
    stride: usize,
) -> (f64, usize) {
    let base = &fixture.dataset.vectors;
    let mut corpus: BTreeMap<u64, Vec<f32>> = (0..fixture.index.ntotal())
        .map(|id| (id, base.vector(id as usize).to_vec()))
        .collect();
    let mut pending = events.events.iter().peekable();
    let (mut sum, mut n) = (0.0, 0usize);
    for i in (0..stream.len()).step_by(stride) {
        while let Some(event) = pending.next_if(|e| e.at <= stream.arrivals[i]) {
            match &event.op {
                MutationOp::Upsert { id, vector } => {
                    corpus.insert(*id, vector.clone());
                }
                MutationOp::Delete { id } => {
                    corpus.remove(id);
                }
            }
        }
        let served = &report.results[i];
        if !served.is_empty() {
            let exact = exact_top10(&corpus, stream.batch.queries.vector(i));
            sum += fixtures::recall_of(served, &exact);
            n += 1;
        }
    }
    (sum, n)
}

fn exact_top10(corpus: &BTreeMap<u64, Vec<f32>>, query: &[f32]) -> Vec<Neighbor> {
    let mut top = TopK::new(10);
    for (&id, vector) in corpus {
        top.push(id, l2_squared(query, vector));
    }
    top.into_sorted()
}
