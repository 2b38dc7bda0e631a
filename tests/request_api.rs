//! The request-centric engine API: equivalence with the legacy positional
//! API, per-query options honored end to end on every engine, and the two
//! Faiss rooflines answering and counting identically on live timelines.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::mutation::{MutableIvf, SnapshotTimeline};
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::vector::Dataset;
use annkit::workload::WorkloadSpec;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest, SearchResponse, TenantId};
use baselines::gpu::GpuFaissEngine;
use pim_sim::config::PimConfig;
use proptest::prelude::*;
use std::sync::OnceLock;
use upanns::builder::UpAnnsBuilder;
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_indexes, InterconnectModel};
use upanns::replica::ReplicatedMultiHost;

struct Fixture {
    dataset: SyntheticDataset,
    index: IvfPqIndex,
    history: Dataset,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dataset = SyntheticSpec::sift_like(1_600)
            .with_clusters(12)
            .with_seed(91)
            .generate_with_meta();
        let index = IvfPqIndex::train(
            &dataset.vectors,
            &IvfPqParams::new(16, 16).with_train_size(700),
            4,
        );
        let history = WorkloadSpec::new(160)
            .with_seed(92)
            .generate(&dataset)
            .queries;
        Fixture {
            dataset,
            index,
            history,
        }
    })
}

fn pim_engine(config: UpAnnsConfig) -> UpAnnsEngine {
    let fix = fixture();
    UpAnnsBuilder::new(&fix.index)
        .with_config(config)
        .with_pim_config(PimConfig::with_dpus(8))
        .with_history(&fix.history, 4)
        .build()
}

fn queries(n: usize) -> Dataset {
    let fix = fixture();
    fix.dataset
        .vectors
        .gather(&(0..n).map(|i| (i * 97) % 1_600).collect::<Vec<_>>())
}

fn ids(results: &[Vec<annkit::topk::Neighbor>]) -> Vec<Vec<u64>> {
    results
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect()
}

/// `execute` with uniform per-query options must return exactly what the
/// legacy positional `search_batch` returns — results *and* simulated time.
fn assert_uniform_equivalence<E: AnnEngine>(engine: &mut E, nprobe: usize, k: usize) {
    let qs = queries(12);
    let legacy = engine.search_batch(&qs, nprobe, k);
    let request =
        SearchRequest::new(qs.clone(), vec![QueryOptions::new(k, nprobe); qs.len()]).with_id(77);
    let response = engine.execute(&request);
    assert_eq!(response.request_id, 77);
    assert_eq!(ids(&legacy.results), ids(&response.results));
    assert!(
        (legacy.seconds - response.seconds).abs() <= legacy.seconds * 1e-9,
        "simulated time differs: {} vs {}",
        legacy.seconds,
        response.seconds
    );
}

/// `execute` with mixed options must answer each query exactly as a
/// same-options uniform batch would.
fn assert_mixed_matches_per_group<E: AnnEngine>(engine: &mut E) {
    let qs = queries(10);
    let a = QueryOptions::new(5, 3);
    let b = QueryOptions::new(9, 6);
    let options: Vec<QueryOptions> = (0..qs.len())
        .map(|i| if i % 2 == 0 { a } else { b })
        .collect();
    let response = engine.execute(&SearchRequest::new(qs.clone(), options));

    let a_members: Vec<usize> = (0..qs.len()).step_by(2).collect();
    let b_members: Vec<usize> = (1..qs.len()).step_by(2).collect();
    let a_expected = engine.search_batch(&qs.gather(&a_members), a.nprobe, a.k);
    let b_expected = engine.search_batch(&qs.gather(&b_members), b.nprobe, b.k);

    for (slot, expected) in a_members.iter().zip(ids(&a_expected.results)) {
        assert_eq!(
            response.results[*slot]
                .iter()
                .map(|n| n.id)
                .collect::<Vec<_>>(),
            expected,
            "query {slot} (k=5, nprobe=3) diverges from its uniform batch"
        );
    }
    for (slot, expected) in b_members.iter().zip(ids(&b_expected.results)) {
        assert_eq!(
            response.results[*slot]
                .iter()
                .map(|n| n.id)
                .collect::<Vec<_>>(),
            expected,
            "query {slot} (k=9, nprobe=6) diverges from its uniform batch"
        );
    }
}

#[test]
fn mixed_options_match_per_group_search_on_all_engines() {
    let fix = fixture();
    assert_mixed_matches_per_group(&mut CpuFaissEngine::new(&fix.index));
    assert_mixed_matches_per_group(&mut GpuFaissEngine::new(&fix.index));
    assert_mixed_matches_per_group(&mut pim_engine(UpAnnsConfig::pim_naive()));
    assert_mixed_matches_per_group(&mut pim_engine(UpAnnsConfig::upanns()));
}

#[test]
fn multihost_execute_honors_per_query_k() {
    let fix = fixture();
    let hosts: Vec<UpAnnsEngine> = shard_indexes(&fix.index, &fix.dataset.vectors, 2)
        .iter()
        .map(|ix| {
            UpAnnsBuilder::new(ix)
                .with_config(UpAnnsConfig::upanns())
                .with_pim_config(PimConfig::with_dpus(8))
                .build()
        })
        .collect();
    let n = hosts.len();
    let mut multi = ReplicatedMultiHost::new(hosts, n, 1, InterconnectModel::default())
        .expect("one host per shard");

    let qs = queries(8);
    let options: Vec<QueryOptions> = (0..qs.len())
        .map(|i| {
            if i % 2 == 0 {
                QueryOptions::new(4, 4)
            } else {
                QueryOptions::new(15, 6)
            }
        })
        .collect();
    let response = multi.execute(&SearchRequest::new(qs.clone(), options.clone()));
    // The coordinator merge truncates to each query's own k.
    for (i, r) in response.results.iter().enumerate() {
        assert!(
            r.len() <= options[i].k,
            "query {i} returned {} > k={}",
            r.len(),
            options[i].k
        );
        assert!(!r.is_empty(), "query {i} returned nothing");
    }
    assert!(response.results[1].len() > response.results[0].len());

    // And the uniform shim still matches execute on the deployment.
    assert_uniform_equivalence(&mut multi, 6, 10);
}

/// A live timeline of `entries` snapshots of one `MutableIvf`, activating at
/// t = 0, 1, 2, …: each later entry has upserted and deleted a few ids.
fn live_timeline(entries: usize) -> SnapshotTimeline {
    let fix = fixture();
    let mut live = MutableIvf::new(&fix.index);
    let mut timeline = SnapshotTimeline::new(live.snapshot());
    for e in 1..entries {
        for i in 0..30 {
            let row = (e * 131 + i * 17) % 1_600;
            let id = (100_000 + e * 100 + i) as u64;
            live.upsert(fix.dataset.vectors.vector(row), id);
            live.delete(((e * 37 + i * 11) % 1_600) as u64);
        }
        timeline.install(e as f64, live.snapshot());
    }
    timeline
}

/// A response's seconds are its breakdown's total: bit for bit when it ran
/// as one part, and to rounding when `SearchResponse::gather` summed parts
/// (part totals added up, against stage sums added up — the same terms in
/// another order).
fn assert_seconds_are_the_breakdown(response: &SearchResponse, one_part: bool, engine: &str) {
    let (seconds, total) = (response.seconds, response.breakdown.total());
    if one_part {
        assert_eq!(
            seconds.to_bits(),
            total.to_bits(),
            "{engine}: {seconds} vs {total}"
        );
    } else {
        let rounding = 8.0 * f64::EPSILON * seconds;
        assert!(
            (seconds - total).abs() <= rounding,
            "{engine}: {seconds} vs {total}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// execute(uniform request) == search_batch on the CPU and GPU engines
    /// for arbitrary (nprobe, k).
    #[test]
    fn execute_equals_search_batch_on_baselines(nprobe in 1usize..10, k in 1usize..25) {
        let fix = fixture();
        assert_uniform_equivalence(&mut CpuFaissEngine::new(&fix.index), nprobe, k);
        assert_uniform_equivalence(&mut GpuFaissEngine::new(&fix.index), nprobe, k);
    }

    /// Same equivalence on the two PIM engines (UpANNS and PIM-naive).
    #[test]
    fn execute_equals_search_batch_on_pim_engines(nprobe in 1usize..8, k in 1usize..16) {
        assert_uniform_equivalence(&mut pim_engine(UpAnnsConfig::upanns()), nprobe, k);
        assert_uniform_equivalence(&mut pim_engine(UpAnnsConfig::pim_naive()), nprobe, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Faiss-CPU and Faiss-GPU are one engine over two rooflines: on any
    /// option mix and any live timeline they answer every query identically
    /// — each from the snapshot active at its own arrival — and count the
    /// same work; only the seconds differ, and each engine's seconds are its
    /// breakdown's total.
    #[test]
    fn cpu_and_gpu_answer_and_count_identically_on_live_timelines(
        entries in 2usize..=4,
        queries_spec in prop::collection::vec((1usize..=50, 1usize..=19, 0u32..2, 0.0f64..1.0), 1..14),
    ) {
        let fix = fixture();
        let timeline = live_timeline(entries);
        let qs = queries(queries_spec.len());
        let options: Vec<QueryOptions> = queries_spec
            .iter()
            .map(|&(k, nprobe, tenant, _)| QueryOptions::new(k, nprobe).with_tenant(TenantId(tenant)))
            .collect();
        let arrivals: Vec<f64> = queries_spec.iter().map(|q| q.3 * entries as f64).collect();
        let request = SearchRequest::new(qs.clone(), options.clone()).with_arrivals(arrivals.clone());

        let mut cpu = CpuFaissEngine::new(&fix.index);
        let mut gpu = GpuFaissEngine::new(&fix.index);
        prop_assert!(cpu.install_timeline(timeline.clone()));
        prop_assert!(gpu.install_timeline(timeline.clone()));
        let c = cpu.execute(&request);
        let g = gpu.execute(&request);

        prop_assert_eq!(&c.results, &g.results);
        prop_assert_eq!(&c.stats, &g.stats);
        for (i, got) in c.results.iter().enumerate() {
            let expected =
                timeline.at(arrivals[i]).search(qs.vector(i), options[i].nprobe, options[i].k);
            prop_assert_eq!(got, &expected, "query {} diverges from its snapshot's search", i);
        }
        let entry = |t: f64| timeline.index_at(t);
        let one_part = request.uniform_options().is_some()
            && arrivals.iter().all(|&t| entry(t) == entry(arrivals[0]));
        assert_seconds_are_the_breakdown(&c, one_part, "Faiss-CPU");
        assert_seconds_are_the_breakdown(&g, one_part, "Faiss-GPU");

        // The first query's options for every query, no arrivals: one part.
        let uniform = SearchRequest::new(qs.clone(), vec![options[0]; qs.len()]);
        assert_seconds_are_the_breakdown(&cpu.execute(&uniform), true, "Faiss-CPU");
        assert_seconds_are_the_breakdown(&gpu.execute(&uniform), true, "Faiss-GPU");
    }
}
