//! The request-centric engine API: equivalence with the legacy positional
//! API, and per-query options honored end to end on every engine.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::vector::Dataset;
use annkit::workload::WorkloadSpec;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest};
use baselines::gpu::GpuFaissEngine;
use pim_sim::config::PimConfig;
use proptest::prelude::*;
use std::sync::OnceLock;
use upanns::builder::{BatchCapacity, UpAnnsBuilder};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_ranges, InterconnectModel};
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
        let history = WorkloadSpec::new(160).with_seed(92).generate(&dataset).queries;
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
        .with_batch_capacity(BatchCapacity {
            batch_size: 32,
            nprobe: 4,
            max_k: 10,
        })
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
            response.results[*slot].iter().map(|n| n.id).collect::<Vec<_>>(),
            expected,
            "query {slot} (k=5, nprobe=3) diverges from its uniform batch"
        );
    }
    for (slot, expected) in b_members.iter().zip(ids(&b_expected.results)) {
        assert_eq!(
            response.results[*slot].iter().map(|n| n.id).collect::<Vec<_>>(),
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
    let ranges = shard_ranges(fix.dataset.vectors.len(), 2);
    let mut shards = Vec::new();
    for r in &ranges {
        let rows: Vec<usize> = r.clone().collect();
        let shard_data = fix.dataset.vectors.gather(&rows);
        let params = IvfPqParams::new(12, 16).with_train_size(500);
        let mut index = IvfPqIndex::train_empty(&shard_data, &params, 3);
        index.add(&shard_data, r.start as u64);
        shards.push(index);
    }
    let hosts: Vec<UpAnnsEngine> = shards
        .iter()
        .map(|ix| {
            UpAnnsBuilder::new(ix)
                .with_config(UpAnnsConfig::upanns())
                .with_pim_config(PimConfig::with_dpus(8))
                .with_batch_capacity(BatchCapacity {
                    batch_size: 32,
                    nprobe: 6,
                    max_k: 20,
                })
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
