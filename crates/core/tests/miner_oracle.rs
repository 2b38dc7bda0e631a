//! `mine_cluster_combos` against the miner it replaced.
//!
//! [`oracle`] is the previous implementation's body, kept verbatim: a
//! `HashMap` of positioned pairs, a match test of every vector against every
//! seed edge, and a scan of the whole triple map per edge. It is slow by
//! construction and exact by inspection, which is what an oracle is for. The
//! dense-counter miner must return the **same table** — the same combos in
//! the same order with the same supports — because the table decides the
//! offline encoding and, through it, every modeled DPU cycle.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::SyntheticSpec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use upanns::cooccurrence::{mine_cluster_combos, Element, MiningParams};

/// The parent commit's `mine_cluster_combos`, returning the ranked
/// `(elements, support)` rows the `ComboTable` was assembled from.
fn oracle(packed_codes: &[u8], m: usize, params: &MiningParams) -> Vec<(Vec<Element>, usize)> {
    assert!(m >= 2, "PQ codes need at least two positions");
    assert!(
        packed_codes.len().is_multiple_of(m),
        "packed code buffer not a multiple of m"
    );
    let n = packed_codes.len() / m;
    if n == 0 || params.max_combos == 0 {
        return Vec::new();
    }
    let min_support = ((n as f64 * params.min_support).ceil() as usize).max(2);

    // ECG edges: co-occurrence counts of positioned element pairs.
    let mut pair_counts: HashMap<(Element, Element), usize> = HashMap::new();
    for code in packed_codes.chunks_exact(m) {
        for i in 0..m {
            for j in (i + 1)..m {
                let a = Element::new(i as u8, code[i]);
                let b = Element::new(j as u8, code[j]);
                *pair_counts.entry((a, b)).or_default() += 1;
            }
        }
    }

    // Keep the heaviest edges as candidate seeds.
    let mut edges: Vec<((Element, Element), usize)> = pair_counts
        .into_iter()
        .filter(|(_, c)| *c >= min_support)
        .collect();
    // Break count ties by element order so the surviving seed set (and hence
    // the offline encoding and simulated time) is identical across runs.
    edges.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    edges.truncate(params.max_combos * 4);
    if edges.is_empty() {
        return Vec::new();
    }

    // Extend each frequent edge to a triple by counting third elements.
    let mut triple_counts: HashMap<(usize, Element), usize> = HashMap::new();
    if params.combo_len >= 3 {
        for code in packed_codes.chunks_exact(m) {
            for (edge_idx, ((a, b), _)) in edges.iter().enumerate() {
                if code[a.position as usize] == a.code && code[b.position as usize] == b.code {
                    for (p, &cp) in code.iter().enumerate() {
                        if p != a.position as usize && p != b.position as usize {
                            let third = Element::new(p as u8, cp);
                            *triple_counts.entry((edge_idx, third)).or_default() += 1;
                        }
                    }
                }
            }
        }
    }

    // Assemble combos: for each seed edge, take its strongest third element if
    // supported, otherwise keep the pair. Deduplicate element sets.
    let mut seen: HashMap<Vec<Element>, usize> = HashMap::new();
    for (edge_idx, ((a, b), pair_support)) in edges.iter().enumerate() {
        #[expect(clippy::disallowed_methods, reason = "ties broken by element below")]
        let best_third = triple_counts
            .iter()
            .filter(|((e, _), _)| *e == edge_idx)
            // Prefer the smallest element on count ties to keep mining
            // independent of HashMap iteration order.
            .max_by(|((_, ta), ca), ((_, tb), cb)| ca.cmp(cb).then_with(|| tb.cmp(ta)))
            .map(|((_, third), &c)| (*third, c));
        let (mut elements, support) = match best_third {
            Some((third, c)) if c >= min_support && params.combo_len >= 3 => {
                (vec![*a, *b, third], c)
            }
            _ => (vec![*a, *b], *pair_support),
        };
        elements.sort();
        let entry = seen.entry(elements).or_insert(0);
        *entry = (*entry).max(support);
    }

    let mut ranked: Vec<(Vec<Element>, usize)> = seen.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(params.max_combos);
    ranked
}

/// Asserts the miner's table equals the oracle's rows: combos, order and
/// supports.
fn assert_same_table(packed: &[u8], m: usize, params: &MiningParams, what: &str) {
    let want = oracle(packed, m, params);
    let got = mine_cluster_combos(packed, m, params);
    assert_eq!(got.len(), want.len(), "{what}: combo count");
    for (i, (elements, support)) in want.iter().enumerate() {
        assert_eq!(
            got.combos()[i].elements(),
            &elements[..],
            "{what}: combo {i}"
        );
        assert_eq!(got.support(i), *support, "{what}: support of combo {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Small alphabets make count ties the common case, so every tie-break
    /// (edges, best third, final ranking) is exercised; `m` past 16 covers
    /// the positions a 4-bit packing would have lost.
    #[test]
    fn miner_equals_the_oracle(
        m in 2usize..=32,
        n in 0usize..=400,
        alphabet in 2usize..=256,
        combo_len in 2usize..=3,
        max_combos_pick in 0usize..4,
        min_support in 0.0f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let packed: Vec<u8> = (0..n * m)
            .map(|_| rng.gen_range(0..alphabet) as u8)
            .collect();
        let params = MiningParams {
            max_combos: [0usize, 1, 7, 256][max_combos_pick],
            combo_len,
            min_support,
        };
        assert_same_table(&packed, m, &params, "random codes");
    }

    /// Codes with planted structure: a few positions repeat a short pattern
    /// in a share of the vectors, so triples exist and edges share thirds.
    #[test]
    fn miner_equals_the_oracle_on_planted_patterns(
        m in 3usize..=20,
        n in 50usize..=400,
        share in 2usize..=6,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut packed: Vec<u8> = (0..n * m).map(|_| rng.gen_range(0u8..=255)).collect();
        for code in packed.chunks_exact_mut(m).step_by(share) {
            for p in 0..3 {
                code[p * (m - 1) / 2] = 7 + p as u8;
            }
        }
        assert_same_table(&packed, m, &MiningParams::default(), "planted pattern");
    }
}

/// The widest code the `u8` position of an [`Element`] can address.
#[test]
fn miner_equals_the_oracle_at_256_positions() {
    let mut rng = SmallRng::seed_from_u64(256);
    let packed: Vec<u8> = (0..40 * 256).map(|_| rng.gen_range(0u8..3)).collect();
    let params = MiningParams {
        max_combos: 64,
        ..MiningParams::default()
    };
    assert_same_table(&packed, 256, &params, "m = 256");
}

/// Every list of the repository benchmark's three fixture shapes
/// (`benchmark/src/fixtures.rs`: S, M, L), mined with the engine's defaults.
#[test]
fn miner_equals_the_oracle_on_the_benchmark_fixture_shapes() {
    for (name, n, nlist, train_size) in [
        ("S", 4_000, 512, 2_400),
        ("M", 8_000, 64, 2_400),
        ("L", 40_000, 32, 3_000),
    ] {
        let data = SyntheticSpec::sift_like(n)
            .with_clusters(16)
            .with_seed(7)
            .generate();
        let params = IvfPqParams::new(nlist, 16).with_train_size(train_size);
        let index = IvfPqIndex::train(&data, &params, 5);
        for (c, list) in index.lists().iter().enumerate() {
            assert_same_table(
                list.packed_codes(),
                16,
                &MiningParams::default(),
                &format!("fixture {name}, list {c}"),
            );
        }
    }
}
