//! Replica-equivalence and fault-injection properties for
//! [`ReplicatedMultiHost`] over [`shard_indexes`]' shards of one index:
//!
//! * **the §5.5 contract** — with every host up and Opt3 off, the tier
//!   answers exactly what one `UpAnnsEngine` over the whole index answers
//!   (and Faiss-CPU), ids and distance bits.
//!
//! The answer-purity contract the module docs state is checked against
//! [`unreplicated_merge`], an oracle that shares no code with the engine:
//!
//! * **healthy equivalence** — with every host up, the replicated engine's
//!   per-query ids *and* distance bit patterns are identical to the
//!   unreplicated deployment over the same shard engines, across random
//!   shard counts, host counts (including hosts > shards), replica
//!   factors, k/nprobe mixes, request ids and dispatch times;
//! * **degraded restriction** — with replica factor 1 and one host down,
//!   the answers equal the unreplicated merge *restricted to the surviving
//!   shards*, and the dropped coverage is counted in `stats.degraded`
//!   (never silently absorbed);
//! * **replicated transparency** — with replica factor ≥ 2, one host down
//!   changes nothing about the answers and `degraded` stays 0;
//! * regression tests for the timing paths (in-flight redispatch exactly
//!   once, the no-survivor stall, hedged retries) proving each moves only
//!   simulated time, never the answer, plus `scale_to` migration
//!   conservation and the degenerate-shape errors.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::SyntheticSpec;
use annkit::topk::{Neighbor, TopK};
use annkit::vector::Dataset;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest};
use pim_sim::config::PimConfig;
use proptest::prelude::*;
use upanns::builder::UpAnnsBuilder;
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_indexes, InterconnectModel};
use upanns::replica::{
    FaultEvent, FaultSchedule, ReplicaMap, ReplicaMapError, ReplicatedMultiHost,
};

/// Largest shard count the properties draw (index training dominates the
/// suite's cost, so every sharding is trained once and shared).
const MAX_SHARDS: usize = 4;

struct Fixture {
    data: Dataset,
    /// The one trained index.
    index: IvfPqIndex,
    /// `sharded[s - 1]` is `index` cut into `s` shards with globally unique
    /// vector ids (the serve binary's construction).
    sharded: Vec<Vec<IvfPqIndex>>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let data = SyntheticSpec::sift_like(1_200)
            .with_clusters(12)
            .with_seed(23)
            .generate();
        let index = IvfPqIndex::train(&data, &IvfPqParams::new(8, 16).with_train_size(400), 2);
        let sharded = (1..=MAX_SHARDS)
            .map(|s| shard_indexes(&index, &data, s))
            .collect();
        Fixture {
            data,
            index,
            sharded,
        }
    })
}

/// One engine of `config` over `index`: a shard, or the whole index for the
/// single-engine side of the §5.5 contract, so the two sides differ only in
/// how the corpus is cut.
fn engine_with(index: &IvfPqIndex, config: UpAnnsConfig) -> UpAnnsEngine {
    UpAnnsBuilder::new(index)
        .with_config(config)
        .with_pim_config(PimConfig::with_dpus(48))
        .build()
}

/// One shard's engine — the same construction for the replicated deployment
/// and the unreplicated reference, so any divergence is the replica layer's.
fn engines_for(shards: &[IvfPqIndex]) -> Vec<UpAnnsEngine> {
    shards
        .iter()
        .map(|ix| engine_with(ix, UpAnnsConfig::upanns()))
        .collect()
}

/// The independent oracle: every shard engine answers the request on its
/// own, and each query keeps its `k` best over all shards' lists. No hosts,
/// no clock, no dedup — shard id ranges are disjoint by construction.
fn unreplicated_merge(shards: &[IvfPqIndex], request: &SearchRequest) -> Vec<Vec<Neighbor>> {
    let per_shard: Vec<Vec<Vec<Neighbor>>> = engines_for(shards)
        .iter_mut()
        .map(|engine| engine.execute(request).results)
        .collect();
    request
        .options()
        .iter()
        .enumerate()
        .map(|(q, opt)| {
            let mut heap = TopK::new(opt.k);
            for n in per_shard.iter().flat_map(|lists| &lists[q]) {
                heap.push(n.id, n.distance);
            }
            heap.into_sorted()
        })
        .collect()
}

/// The option universe the properties mix.
fn option_of(tag: u8) -> QueryOptions {
    match tag % 3 {
        0 => QueryOptions::new(10, 8),
        1 => QueryOptions::new(10, 4),
        _ => QueryOptions::new(20, 8),
    }
}

fn request_of(rows: &[usize], tags: &[u8], id: u64, at: f64) -> SearchRequest {
    let queries = fixture().data.gather(rows);
    let options = rows
        .iter()
        .zip(tags.iter().cycle())
        .map(|(_, &t)| option_of(t))
        .collect();
    SearchRequest::new(queries, options).with_id(id).with_at(at)
}

///(id, distance bits) per neighbor per query — the bitwise form the
/// equivalence is stated over.
fn bits(results: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
    results
        .iter()
        .map(|q| q.iter().map(|n| (n.id, n.distance.to_bits())).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The §5.5 contract: a healthy tier over [`shard_indexes`]' shards of
    /// one index answers exactly what one engine over that index answers,
    /// and what Faiss-CPU answers, ids and distance bits, whatever the shard
    /// count, host count, replica factor, option mix, request id and
    /// dispatch time. The shards share the index's quantizers, so every host
    /// probes the same clusters with the same LUTs, and the candidates of a
    /// list are split across hosts, not changed.
    ///
    /// Claimed with Opt3 off only (the naive engine, and UpANNS without
    /// co-occurrence encoding): each shard mines its own combination table
    /// from its own codes, which regroups the float sum of a distance, so
    /// with Opt3 on a distance may differ in its last bits.
    #[test]
    fn healthy_tier_answers_exactly_what_one_engine_answers(
        shards in 1usize..=MAX_SHARDS,
        hosts in 1usize..=4,
        replicas_raw in 1usize..=4,
        naive_bit in 0u8..2,
        rows in prop::collection::vec(0usize..1_200, 1..6),
        tags in prop::collection::vec(0u8..3, 6),
        id in 0u64..64,
        at in 0.0f64..50.0,
    ) {
        let replicas = replicas_raw.min(hosts);
        let config = if naive_bit == 1 {
            UpAnnsConfig::pim_naive()
        } else {
            UpAnnsConfig::upanns().with_cooccurrence(false)
        };
        let fx = fixture();
        let request = request_of(&rows, &tags, id, at);

        let engines = fx.sharded[shards - 1]
            .iter()
            .map(|ix| engine_with(ix, config.clone()))
            .collect();
        let ic = InterconnectModel::default();
        let mut tier =
            ReplicatedMultiHost::new(engines, hosts, replicas, ic).expect("valid shape");
        let got = tier.execute(&request);
        let single = engine_with(&fx.index, config).execute(&request);
        let cpu = CpuFaissEngine::new(&fx.index).execute(&request);

        prop_assert_eq!(bits(&got.results), bits(&single.results));
        prop_assert_eq!(bits(&got.results), bits(&cpu.results));
        prop_assert_eq!(got.stats.degraded, 0);
    }

    /// Healthy replicated execution is bitwise-identical to the
    /// unreplicated multi-host merge over the same shard engines.
    #[test]
    fn healthy_replicated_matches_unreplicated_bitwise(
        shards in 1usize..=MAX_SHARDS,
        hosts in 1usize..=4,
        replicas_raw in 1usize..=4,
        rows in prop::collection::vec(0usize..1_200, 1..6),
        tags in prop::collection::vec(0u8..3, 6),
        id in 0u64..64,
        at in 0.0f64..50.0,
    ) {
        let replicas = replicas_raw.min(hosts);
        let fx = fixture();
        let request = request_of(&rows, &tags, id, at);

        let expected = unreplicated_merge(&fx.sharded[shards - 1], &request);

        let mut replicated = ReplicatedMultiHost::new(
            engines_for(&fx.sharded[shards - 1]),
            hosts,
            replicas,
            InterconnectModel::default(),
        )
        .expect("valid shape");
        let got = replicated.execute(&request);

        prop_assert_eq!(bits(&got.results), bits(&expected));
        prop_assert_eq!(got.stats.degraded, 0);
        prop_assert_eq!(got.stats.hedged, 0);
        prop_assert_eq!(got.stats.redispatched, 0);
    }

    /// Replica factor 1, one host down at dispatch time: the answers equal
    /// the unreplicated merge restricted to the surviving shards, and the
    /// lost coverage is flagged as `degraded` — one count per query for the
    /// one uncovered shard.
    #[test]
    fn single_host_down_restricts_to_surviving_coverage(
        shards in 1usize..=MAX_SHARDS,
        down_raw in 0usize..MAX_SHARDS,
        rows in prop::collection::vec(0usize..1_200, 1..6),
        tags in prop::collection::vec(0u8..3, 6),
        id in 0u64..64,
        at in 5.0f64..50.0,
    ) {
        // r = 1 on `shards` hosts maps shard i to host i, so killing host
        // `down` uncovers exactly shard `down`.
        let down = down_raw % shards;
        let fx = fixture();
        let request = request_of(&rows, &tags, id, at);
        let faults = FaultSchedule::new(vec![FaultEvent {
            host: down,
            down_at: 0.0,
            up_at: 1e6,
        }]);

        let mut replicated = ReplicatedMultiHost::new(
            engines_for(&fx.sharded[shards - 1]),
            shards,
            1,
            InterconnectModel::default(),
        )
        .expect("valid shape")
        .with_faults(faults);
        let got = replicated.execute(&request);
        prop_assert_eq!(got.stats.degraded, rows.len() as u64);

        let survivors: Vec<IvfPqIndex> = fx.sharded[shards - 1]
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != down)
            .map(|(_, ix)| ix.clone())
            .collect();
        if survivors.is_empty() {
            // The only shard is uncovered: every query answers empty rather
            // than silently partial.
            prop_assert!(got.results.iter().all(Vec::is_empty));
        } else {
            let expected = unreplicated_merge(&survivors, &request);
            prop_assert_eq!(bits(&got.results), bits(&expected));
        }
    }

    /// Replica factor ≥ 2: one host down is answer-transparent — results
    /// stay bitwise-identical to the unreplicated merge and nothing is
    /// degraded (the surviving replica covers every shard).
    #[test]
    fn replicated_deployment_masks_a_single_host_outage(
        shards in 1usize..=MAX_SHARDS,
        hosts in 2usize..=4,
        replicas_raw in 2usize..=4,
        down_raw in 0usize..4,
        rows in prop::collection::vec(0usize..1_200, 1..6),
        tags in prop::collection::vec(0u8..3, 6),
        id in 0u64..64,
        at in 5.0f64..50.0,
    ) {
        let replicas = replicas_raw.min(hosts);
        let down = down_raw % hosts;
        let fx = fixture();
        let request = request_of(&rows, &tags, id, at);

        let expected = unreplicated_merge(&fx.sharded[shards - 1], &request);

        let faults = FaultSchedule::new(vec![FaultEvent {
            host: down,
            down_at: 0.0,
            up_at: 1e6,
        }]);
        let mut replicated = ReplicatedMultiHost::new(
            engines_for(&fx.sharded[shards - 1]),
            hosts,
            replicas,
            InterconnectModel::default(),
        )
        .expect("valid shape")
        .with_faults(faults);
        let got = replicated.execute(&request);

        prop_assert_eq!(bits(&got.results), bits(&expected));
        prop_assert_eq!(got.stats.degraded, 0);
    }
}

/// A 2-shard/2-host/r=2 deployment whose host 0 dies right after dispatch:
/// the in-flight shard is re-dispatched to the survivor exactly once, the
/// answers do not move, and only completion time pays for the retry.
#[test]
fn inflight_death_redispatches_exactly_once_without_changing_answers() {
    let fx = fixture();
    let rows = [3usize, 500, 900];
    let tags = [0u8, 1, 2];
    let t0 = 10.0;
    let request = request_of(&rows, &tags, 0, t0);

    let mut healthy = ReplicatedMultiHost::new(
        engines_for(&fx.sharded[1]),
        2,
        2,
        InterconnectModel::default(),
    )
    .expect("valid shape");
    let baseline = healthy.execute(&request);
    assert_eq!(baseline.stats.redispatched, 0);

    // Host 0 dies just after the batch dispatches and stays down: the shard
    // it was serving (request id 0 picks host 0 for shard 0) is in flight.
    let faults = FaultSchedule::new(vec![FaultEvent {
        host: 0,
        down_at: t0 + 1e-9,
        up_at: 1e6,
    }]);
    let mut faulted = ReplicatedMultiHost::new(
        engines_for(&fx.sharded[1]),
        2,
        2,
        InterconnectModel::default(),
    )
    .expect("valid shape")
    .with_faults(faults);
    let got = faulted.execute(&request);

    assert_eq!(got.stats.redispatched, 1, "one in-flight shard, one retry");
    assert_eq!(got.stats.degraded, 0, "coverage never dropped");
    assert_eq!(bits(&got.results), bits(&baseline.results));
}

/// Every replica of the in-flight shard is down at the death instant: the
/// shard stalls until the primary's outage ends and re-runs there — the
/// answer survives, and the modeled completion pays for the whole outage.
#[test]
fn no_survivor_stalls_until_the_outage_ends_and_keeps_the_answer() {
    let fx = fixture();
    let rows = [10usize, 700];
    let tags = [0u8, 2];
    let t0 = 10.0;
    let outage_s = 30.0;
    let request = request_of(&rows, &tags, 0, t0);

    let mut healthy = ReplicatedMultiHost::new(
        engines_for(&fx.sharded[0]),
        2,
        2,
        InterconnectModel::default(),
    )
    .expect("valid shape");
    let baseline = healthy.execute(&request);

    // Both hosts die just after dispatch; host 0 (the primary for request
    // id 0) comes back first, so the stalled shard resumes there.
    let faults = FaultSchedule::new(vec![
        FaultEvent {
            host: 0,
            down_at: t0 + 1e-9,
            up_at: t0 + outage_s,
        },
        FaultEvent {
            host: 1,
            down_at: t0 + 1e-9,
            up_at: t0 + outage_s + 10.0,
        },
    ]);
    let mut faulted = ReplicatedMultiHost::new(
        engines_for(&fx.sharded[0]),
        2,
        2,
        InterconnectModel::default(),
    )
    .expect("valid shape")
    .with_faults(faults);
    let got = faulted.execute(&request);

    assert_eq!(got.stats.redispatched, 1, "the stall is counted as a retry");
    assert_eq!(
        got.stats.degraded, 0,
        "dispatched coverage is never dropped"
    );
    assert_eq!(bits(&got.results), bits(&baseline.results));
    assert!(
        got.seconds >= outage_s,
        "completion {} s must cover the {} s outage stall",
        got.seconds,
        outage_s
    );
}

/// A hedging budget below one shard's modeled time makes every shard a
/// straggler: the hedge fires (counted once per shard), and because the
/// clone's answers are its primary's, the merge does not change.
#[test]
fn hedged_retries_move_time_but_never_answers() {
    let fx = fixture();
    let rows = [42usize, 1_000];
    let tags = [0u8, 1];
    let request = request_of(&rows, &tags, 0, 5.0);

    let mut plain = ReplicatedMultiHost::new(
        engines_for(&fx.sharded[0]),
        2,
        2,
        InterconnectModel::default(),
    )
    .expect("valid shape");
    let baseline = plain.execute(&request);
    assert_eq!(baseline.stats.hedged, 0);

    let mut hedging = ReplicatedMultiHost::new(
        engines_for(&fx.sharded[0]),
        2,
        2,
        InterconnectModel::default(),
    )
    .expect("valid shape")
    .with_hedge_budget(1e-9);
    let got = hedging.execute(&request);

    assert_eq!(got.stats.hedged, 1, "one shard, one hedge");
    assert_eq!(bits(&got.results), bits(&baseline.results));
    assert!(
        got.seconds <= baseline.seconds + 1e-9,
        "a hedge may only help the completion time"
    );
}

/// `scale_to` keeps every shard on exactly `r` distinct hosts of the new
/// host set, gates fresh hosts behind their migration pull, clamps targets
/// below the replica factor, and leaves `last_balance_ratio` well-defined
/// while the host set changes between batches.
#[test]
fn scale_to_conserves_replication_and_gates_fresh_hosts() {
    let fx = fixture();
    let rows = [1usize, 600, 1_100];
    let tags = [0u8, 1, 2];
    let mut engine = ReplicatedMultiHost::new(
        engines_for(&fx.sharded[2]),
        2,
        2,
        InterconnectModel::default(),
    )
    .expect("valid shape");

    let before = engine.execute(&request_of(&rows, &tags, 0, 1.0));
    assert_eq!(before.stats.degraded, 0);
    assert!(engine.last_balance_ratio().is_finite());

    let migration = engine.scale_to(4, 5.0).expect("growing is valid");
    assert!(migration > 0.0, "shard copies must cost interconnect time");
    assert!((engine.migration_seconds() - migration).abs() < 1e-12);
    assert_eq!(engine.live_hosts(), Some(4));
    let map = engine.replica_map();
    for s in 0..3 {
        let hosts: BTreeSet<usize> = map.hosts_of(s).into_iter().collect();
        assert_eq!(hosts.len(), 2, "shard {s} not on exactly r hosts");
        assert!(hosts.iter().all(|&h| h < 4));
    }

    // Before the pull completes the fresh hosts cannot serve: the ring now
    // places shard 2 on hosts {2, 3} only, so its coverage is degraded —
    // and the balance ratio stays finite across the host-set change.
    let during = engine.execute(&request_of(&rows, &tags, 0, 5.0 + migration / 2.0));
    assert_eq!(during.stats.degraded, rows.len() as u64);
    assert!(engine.last_balance_ratio().is_finite());

    // After the pull everything serves again, identically to an
    // unreplicated deployment over the same shards.
    let after = engine.execute(&request_of(&rows, &tags, 0, 5.0 + migration + 1.0));
    assert_eq!(after.stats.degraded, 0);
    let expected = unreplicated_merge(
        &fx.sharded[2],
        &request_of(&rows, &tags, 0, 5.0 + migration + 1.0),
    );
    assert_eq!(bits(&after.results), bits(&expected));

    // Shrinking below the replica factor clamps to it instead of silently
    // under-replicating; a no-op target charges nothing.
    engine.scale_to(1, 100.0).expect("clamped shrink is valid");
    assert_eq!(engine.live_hosts(), Some(2));
    assert_eq!(engine.scale_to(2, 101.0), Some(0.0));
}

/// `up_after` walks chained and overlapping outages to the first real gap.
#[test]
fn up_after_walks_chained_outages() {
    let sched = FaultSchedule::new(vec![
        FaultEvent {
            host: 1,
            down_at: 10.0,
            up_at: 20.0,
        },
        FaultEvent {
            host: 1,
            down_at: 20.0,
            up_at: 30.0,
        },
        FaultEvent {
            host: 2,
            down_at: 10.0,
            up_at: 25.0,
        },
        FaultEvent {
            host: 2,
            down_at: 20.0,
            up_at: 40.0,
        },
    ]);
    assert_eq!(sched.up_after(1, 5.0), 5.0, "already up");
    assert_eq!(sched.up_after(1, 12.0), 30.0, "chained outages are walked");
    assert_eq!(sched.up_after(1, 30.0), 30.0, "up_at is exclusive");
    assert_eq!(sched.up_after(2, 15.0), 40.0, "overlap extends the walk");
    assert_eq!(sched.up_after(0, 12.0), 12.0, "other hosts unaffected");
}

/// Degenerate shapes error instead of wrapping, and the empty deployments
/// (zero shards, empty requests) answer empty rather than panicking.
#[test]
fn degenerate_shapes_error_and_empty_inputs_answer_empty() {
    let fx = fixture();
    let ic = InterconnectModel::default;

    assert!(matches!(
        ReplicatedMultiHost::new(engines_for(&fx.sharded[0]), 0, 1, ic()),
        Err(ReplicaMapError::ZeroHosts)
    ));
    assert!(matches!(
        ReplicatedMultiHost::new(engines_for(&fx.sharded[0]), 2, 0, ic()),
        Err(ReplicaMapError::ZeroReplicas)
    ));
    assert!(matches!(
        ReplicatedMultiHost::new(engines_for(&fx.sharded[0]), 2, 3, ic()),
        Err(ReplicaMapError::ReplicasExceedHosts {
            replicas: 3,
            hosts: 2
        })
    ));

    // More hosts than shards is a valid (sparse) deployment.
    let sparse = ReplicaMap::new(2, 5, 3).expect("hosts > shards is fine");
    assert_eq!(sparse.hosts_of(0).len(), 3);

    // Zero shards (an n == 0 corpus): every query answers empty.
    let mut empty = ReplicatedMultiHost::new(Vec::new(), 2, 1, ic()).expect("empty map");
    let request = request_of(&[5, 6], &[0, 1], 0, 1.0);
    let response = empty.execute(&request);
    assert_eq!(response.results.len(), 2);
    assert!(response.results.iter().all(Vec::is_empty));
    assert_eq!(
        response.stats.degraded, 0,
        "no shards means nothing to lose"
    );

    // An empty request short-circuits on any deployment.
    let mut engine =
        ReplicatedMultiHost::new(engines_for(&fx.sharded[0]), 2, 2, ic()).expect("valid");
    let nothing = SearchRequest::new(fx.data.gather(&[]), Vec::new()).with_at(3.0);
    assert!(engine.execute(&nothing).results.is_empty());
}
