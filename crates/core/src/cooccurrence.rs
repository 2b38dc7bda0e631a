//! Opt3 (offline half): mining high-frequency code combinations with an
//! Element Co-occurrence Graph (ECG).
//!
//! PQ codes take values in `[0, 255]`, so real datasets contain positioned
//! element combinations that repeat across many vectors (the paper measures
//! the triplet (1, 15, 26) at positions (0, 1, 2) in 5.7 % of SIFT1B). For
//! each cluster we mine the top-`m` most frequent combinations of length up
//! to 3: nodes of the ECG are positioned elements `(position, code)`, edges
//! are weighted by pair co-occurrence counts, and frequent edges are extended
//! to triples. The partial LUT sums of the mined combinations are cached in
//! WRAM at query time so the distance loop replaces several lookups + adds
//! with one.

use std::collections::HashMap;

/// A positioned code element: `code` appearing at PQ position `position`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Element {
    /// PQ sub-quantizer index (column) the code appears in.
    pub position: u8,
    /// The code value.
    pub code: u8,
}

impl Element {
    /// Creates an element.
    pub fn new(position: u8, code: u8) -> Self {
        Self { position, code }
    }

    /// The flat LUT address of this element (`position * 256 + code`), the
    /// direct-address form used by the PIM-friendly encoding.
    pub fn lut_address(&self) -> usize {
        self.position as usize * 256 + self.code as usize
    }
}

/// A mined combination: 2 or 3 positioned elements, sorted by position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Combo {
    elements: Vec<Element>,
}

impl Combo {
    /// Creates a combo from elements (sorted by position internally).
    ///
    /// # Panics
    /// Panics if fewer than 2 elements, or two elements share a position.
    pub fn new(mut elements: Vec<Element>) -> Self {
        assert!(elements.len() >= 2, "a combo needs at least two elements");
        elements.sort();
        for w in elements.windows(2) {
            assert_ne!(w[0].position, w[1].position, "duplicate position in combo");
        }
        Self { elements }
    }

    /// The combo's elements, sorted by position.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of elements covered (2 or 3).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Combos are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the PQ code `code` (of length `m`) contains this combo at the
    /// right positions.
    pub fn matches(&self, code: &[u8]) -> bool {
        self.elements
            .iter()
            .all(|e| code.get(e.position as usize) == Some(&e.code))
    }

    /// The set of positions the combo covers.
    pub fn positions(&self) -> Vec<usize> {
        self.elements.iter().map(|e| e.position as usize).collect()
    }
}

/// The mined combination table of one cluster, ordered by descending support.
#[derive(Debug, Clone, Default)]
pub struct ComboTable {
    combos: Vec<Combo>,
    /// Support (number of matching vectors) of each combo.
    support: Vec<usize>,
}

impl ComboTable {
    /// An empty table (no combinations cached).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The mined combos, most frequent first.
    pub fn combos(&self) -> &[Combo] {
        &self.combos
    }

    /// The support count of combo `i`.
    pub fn support(&self, i: usize) -> usize {
        self.support[i]
    }

    /// Number of combos.
    pub fn len(&self) -> usize {
        self.combos.len()
    }

    /// Whether no combos were mined.
    pub fn is_empty(&self) -> bool {
        self.combos.is_empty()
    }

    /// WRAM bytes needed to cache the partial sums (one entry per combo).
    pub fn partial_sums_bytes(&self, bytes_per_entry: usize) -> usize {
        self.combos.len() * bytes_per_entry
    }

    /// Computes the partial LUT sums of every combo against a concrete LUT
    /// (the online step executed right after LUT construction, Figure 6's
    /// "Comb. Sum" stage).
    pub fn partial_sums(&self, lut: &annkit::lut::LookupTable) -> Vec<f32> {
        let mut sums = Vec::with_capacity(self.combos.len());
        self.extend_partial_sums(lut, &mut sums);
        sums
    }

    /// Appends [`partial_sums`](Self::partial_sums) to `out` — after the
    /// flat LUT this forms the unified table the encoded stream addresses
    /// (§4.3).
    pub fn extend_partial_sums(&self, lut: &annkit::lut::LookupTable, out: &mut Vec<f32>) {
        out.extend(self.combos.iter().map(|c| {
            c.elements()
                .iter()
                .map(|e| lut.get_flat(e.lut_address()))
                .sum::<f32>()
        }));
    }
}

/// Mining parameters.
#[derive(Debug, Clone)]
pub struct MiningParams {
    /// Maximum combinations kept per cluster (the paper's `m = 256`).
    pub max_combos: usize,
    /// Target combination length (3 by default; pairs are kept when no strong
    /// third element exists).
    pub combo_len: usize,
    /// Minimum fraction of the cluster's vectors a combination must cover.
    pub min_support: f64,
}

impl Default for MiningParams {
    fn default() -> Self {
        Self {
            max_combos: 256,
            combo_len: 3,
            min_support: 0.02,
        }
    }
}

/// Mines the top combinations of one cluster's packed PQ codes.
///
/// `packed_codes` is the cluster's inverted-list payload (`n × m` bytes).
pub fn mine_cluster_combos(packed_codes: &[u8], m: usize, params: &MiningParams) -> ComboTable {
    assert!(m >= 2, "PQ codes need at least two positions");
    assert!(
        packed_codes.len().is_multiple_of(m),
        "packed code buffer not a multiple of m"
    );
    let n = packed_codes.len() / m;
    if n == 0 || params.max_combos == 0 {
        return ComboTable::empty();
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
        return ComboTable::empty();
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

    let mut combos = Vec::with_capacity(ranked.len());
    let mut support = Vec::with_capacity(ranked.len());
    for (elements, s) in ranked {
        combos.push(Combo::new(elements));
        support.push(s);
    }
    ComboTable { combos, support }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds packed codes where a triple (5, 9, 13) at positions (0, 1, 2)
    /// appears in 40 % of vectors and the rest is pseudo-random.
    fn codes_with_pattern(n: usize, m: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * m);
        for i in 0..n {
            for p in 0..m {
                let noise = ((i * 31 + p * 17) % 251) as u8;
                out.push(noise);
            }
            if i % 5 < 2 {
                let base = out.len() - m;
                out[base] = 5;
                out[base + 1] = 9;
                out[base + 2] = 13;
            }
        }
        out
    }

    #[test]
    fn finds_the_injected_triple() {
        let codes = codes_with_pattern(500, 8);
        let table = mine_cluster_combos(&codes, 8, &MiningParams::default());
        assert!(!table.is_empty());
        let target = Combo::new(vec![
            Element::new(0, 5),
            Element::new(1, 9),
            Element::new(2, 13),
        ]);
        let found = table.combos().contains(&target);
        assert!(found, "expected the injected triple to be mined: {:?}", table.combos().first());
        // Its support should be roughly 40 % of the cluster.
        let idx = table.combos().iter().position(|c| *c == target).unwrap();
        assert!(table.support(idx) >= 150, "support {}", table.support(idx));
    }

    #[test]
    fn random_codes_yield_few_or_no_combos() {
        // Pseudo-random codes without injected structure: with a 2 % support
        // threshold nothing (or almost nothing) should qualify.
        let mut codes = Vec::new();
        for i in 0..400usize {
            for p in 0..8usize {
                codes.push(((i * 7919 + p * 104729) % 256) as u8);
            }
        }
        let table = mine_cluster_combos(&codes, 8, &MiningParams::default());
        assert!(table.len() <= 4, "unexpectedly many combos: {}", table.len());
    }

    #[test]
    fn combo_matching_and_addresses() {
        let combo = Combo::new(vec![Element::new(2, 7), Element::new(0, 3)]);
        // Elements are sorted by position.
        assert_eq!(combo.elements()[0].position, 0);
        assert_eq!(combo.positions(), vec![0, 2]);
        let addresses: Vec<usize> = combo.elements().iter().map(Element::lut_address).collect();
        assert_eq!(addresses, vec![3, 2 * 256 + 7]);
        assert!(combo.matches(&[3, 99, 7, 0]));
        assert!(!combo.matches(&[3, 99, 8, 0]));
        assert_eq!(combo.len(), 2);
        assert!(!combo.is_empty());
    }

    #[test]
    fn partial_sums_match_manual_lookup() {
        use annkit::lut::LookupTable;
        use annkit::pq::ProductQuantizer;
        use annkit::vector::Dataset;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(3);
        let mut ds = Dataset::new(8);
        let mut v = [0.0f32; 8];
        for _ in 0..400 {
            for x in v.iter_mut() {
                *x = rng.gen_range(-1.0..1.0);
            }
            ds.push(&v);
        }
        let pq = ProductQuantizer::train(&ds, 4, 1);
        let lut = LookupTable::build(&pq, ds.vector(0));

        let combo = Combo::new(vec![Element::new(1, 10), Element::new(3, 200)]);
        let mut table = ComboTable::empty();
        table.combos.push(combo.clone());
        table.support.push(5);
        let sums = table.partial_sums(&lut);
        let expected = lut.get(1, 10) + lut.get(3, 200);
        assert!((sums[0] - expected).abs() < 1e-6);
        assert_eq!(table.partial_sums_bytes(4), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate position")]
    fn combos_reject_duplicate_positions() {
        let _ = Combo::new(vec![Element::new(1, 2), Element::new(1, 3)]);
    }

    #[test]
    fn empty_input_is_handled() {
        let table = mine_cluster_combos(&[], 8, &MiningParams::default());
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.partial_sums_bytes(2), 0);
    }
}
