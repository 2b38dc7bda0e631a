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

use std::sync::Arc;

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
    pub(crate) fn lut_address(&self) -> usize {
        self.position as usize * 256 + self.code as usize
    }
}

/// A mined combination: 2 or 3 positioned elements, sorted by position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Combo {
    elements: Vec<Element>,
}

impl Combo {
    /// The combo's elements, sorted by position.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Whether the PQ code `code` (of length `m`) contains this combo at the
    /// right positions.
    pub(crate) fn matches(&self, code: &[u8]) -> bool {
        self.elements
            .iter()
            .all(|e| code.get(e.position as usize) == Some(&e.code))
    }

    /// The set of positions the combo covers.
    pub(crate) fn positions(&self) -> Vec<usize> {
        self.elements.iter().map(|e| e.position as usize).collect()
    }

    /// The combo's partial sum over the flat LUT `flat`: its elements'
    /// entries, added in element order.
    fn sum_over(&self, flat: &[f32]) -> f32 {
        self.elements
            .iter()
            .map(|e| flat[e.lut_address()])
            .sum::<f32>()
    }
}

/// The mined combination table of one cluster, ordered by descending support.
/// A clone shares the mined rows: every epoch that serves one unchanged list
/// reads one table.
#[derive(Debug, Clone, Default)]
pub struct ComboTable {
    combos: Arc<[Combo]>,
    /// Support (number of matching vectors) of each combo.
    support: Arc<[usize]>,
}

impl ComboTable {
    /// An empty table (no combinations cached).
    pub(crate) fn empty() -> Self {
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

    /// Elements of all combos together.
    pub(crate) fn elements(&self) -> u64 {
        self.combos.iter().map(|c| c.elements.len() as u64).sum()
    }

    /// Computes the partial LUT sums of every combo against a concrete LUT
    /// (the online step executed right after LUT construction, Figure 6's
    /// "Comb. Sum" stage).
    pub fn partial_sums(&self, lut: &annkit::lut::LookupTable) -> Vec<f32> {
        let flat = lut.as_flat();
        self.combos.iter().map(|c| c.sum_over(flat)).collect()
    }

    /// Writes [`partial_sums`](Self::partial_sums) of the flat `m · 256`
    /// LUT at the head of `space` right after it, combination `i` at
    /// `256 · m + i`, which forms the unified table the encoded stream
    /// addresses (§4.3). Returns the end of what is built:
    /// `256 · m + self.len()`.
    ///
    /// # Panics
    /// Panics if `space` is shorter than that end.
    pub(crate) fn write_partial_sums(&self, m: usize, space: &mut [f32]) -> usize {
        let end = 256 * m + self.len();
        assert!(end <= space.len(), "partial sums past the address space");
        let (lut, sums) = space[..end].split_at_mut(256 * m);
        for (sum, combo) in sums.iter_mut().zip(self.combos.iter()) {
            *sum = combo.sum_over(lut);
        }
        end
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
///
/// Exact and deterministic: every positioned pair that reaches the support
/// threshold is counted, count ties break by element order (seed edges and
/// final ranking) or towards the smallest third element, and no hash-map
/// order is involved. A pair or triple can only reach the threshold if each
/// of its elements does, so all counting happens in the dense space of the
/// cluster's *frequent* elements (`FrequentElements`): one small
/// `(wᵢ+1) × (wⱼ+1)` counter table per position pair instead of a hash map
/// over `n × C(m, 2)` keys.
///
/// # Panics
/// Panics if `m` is not in `2..=256` (an [`Element`]'s position is a `u8`)
/// or `packed_codes.len()` is not a multiple of `m`.
pub fn mine_cluster_combos(packed_codes: &[u8], m: usize, params: &MiningParams) -> ComboTable {
    assert!((2..=256).contains(&m), "PQ codes need 2..=256 positions");
    assert!(
        packed_codes.len().is_multiple_of(m),
        "packed code buffer not a multiple of m"
    );
    let n = packed_codes.len() / m;
    if n == 0 || params.max_combos == 0 {
        return ComboTable::empty();
    }
    let min_support = ((n as f64 * params.min_support).ceil() as usize).max(2);
    let frequent = FrequentElements::of(packed_codes, m, min_support);

    // ECG edges: positioned element pairs with enough co-occurrences, the
    // heaviest kept as candidate seeds. Count ties break by element order so
    // the surviving seed set (and hence the offline encoding and simulated
    // time) is identical across runs.
    let mut edges = frequent.supported_pairs(min_support);
    edges.sort_unstable_by(|a, b| b.support.cmp(&a.support).then_with(|| a.pair.cmp(&b.pair)));
    edges.truncate(params.max_combos.saturating_mul(4));
    if edges.is_empty() {
        return ComboTable::empty();
    }

    // For each seed edge, take its strongest third element if supported,
    // otherwise keep the pair.
    let thirds = if params.combo_len >= 3 {
        frequent.best_thirds(&mut edges)
    } else {
        vec![None; edges.len()]
    };
    let mut ranked: Vec<(ElementSet, usize)> = edges
        .iter()
        .zip(thirds)
        .map(|(edge, third)| {
            let (a, b) = edge.pair;
            match third {
                Some((t, support)) if support >= min_support => {
                    let mut triple = [a, b, t];
                    triple.sort_unstable();
                    ((triple[0], triple[1], Some(triple[2])), support)
                }
                _ => ((a, b, None), edge.support),
            }
        })
        .collect();
    // One triple is reachable from up to three seed edges: keep one row per
    // element set (its largest support), then rank.
    ranked.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
    ranked.dedup_by_key(|row| row.0);
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(params.max_combos);

    let mut combos = Vec::with_capacity(ranked.len());
    let mut support = Vec::with_capacity(ranked.len());
    for ((a, b, third), s) in ranked {
        combos.push(Combo {
            elements: [a, b].into_iter().chain(third).collect(),
        });
        support.push(s);
    }
    ComboTable {
        combos: combos.into(),
        support: support.into(),
    }
}

/// A candidate combination's elements, sorted by position. `None < Some(_)`,
/// so the derived tuple order is the lexicographic order of the element
/// lists (a pair sorts before the triples it prefixes).
type ElementSet = (Element, Element, Option<Element>);

/// A positioned pair `(a, b)` with `a.position < b.position` and the number
/// of vectors containing both.
struct Edge {
    pair: (Element, Element),
    support: usize,
}

/// A cluster's codes re-expressed over its *frequent* elements — the
/// `(position, code)` values at least `min_support` vectors carry.
///
/// Every position `p` owns `codes[p].len() + 1` consecutive slots starting
/// at `offset[p]`: one per frequent code in ascending code order, then one
/// shared by all its infrequent codes. Mapping every code byte to its slot
/// lets the counting loops below index dense tables unconditionally.
struct FrequentElements {
    m: usize,
    /// Frequent codes of each position, ascending.
    codes: Vec<Vec<u8>>,
    /// First slot of each position.
    offset: Vec<usize>,
    /// Number of slots over all positions.
    total_slots: usize,
    /// `m × 256`: the slot of every possible `(position, code)`.
    slot_of: Vec<u32>,
    /// `n × m`: the slot of every code byte of the cluster.
    slots: Vec<u32>,
}

impl FrequentElements {
    fn of(packed_codes: &[u8], m: usize, min_support: usize) -> Self {
        let mut histogram = vec![0usize; m * 256];
        for code in packed_codes.chunks_exact(m) {
            for (p, &c) in code.iter().enumerate() {
                histogram[p * 256 + c as usize] += 1;
            }
        }
        let mut codes = Vec::with_capacity(m);
        let mut offset = Vec::with_capacity(m);
        let mut slot_of = vec![0u32; m * 256];
        let mut total_slots = 0usize;
        for p in 0..m {
            let counts = &histogram[p * 256..(p + 1) * 256];
            let frequent: Vec<u8> = (0..=255u8)
                .filter(|&c| counts[c as usize] >= min_support)
                .collect();
            offset.push(total_slots);
            let row = &mut slot_of[p * 256..(p + 1) * 256];
            row.fill((total_slots + frequent.len()) as u32);
            for (rank, &c) in frequent.iter().enumerate() {
                row[c as usize] = (total_slots + rank) as u32;
            }
            total_slots += frequent.len() + 1;
            codes.push(frequent);
        }
        let slots = packed_codes
            .chunks_exact(m)
            .flat_map(|code| {
                let slot_of = &slot_of;
                code.iter()
                    .enumerate()
                    .map(move |(p, &c)| slot_of[p * 256 + c as usize])
            })
            .collect();
        Self {
            m,
            codes,
            offset,
            total_slots,
            slot_of,
            slots,
        }
    }

    /// The element behind frequent code number `rank` of position `p`.
    fn element(&self, p: usize, rank: usize) -> Element {
        Element::new(p as u8, self.codes[p][rank])
    }

    fn slot(&self, e: Element) -> u32 {
        self.slot_of[e.lut_address()]
    }

    /// The dense table of position pair `(i, j)`: its cell count, and the
    /// cell of a `(slot at i, slot at j)` pair. Row `wᵢ` and column `wⱼ`
    /// collect the infrequent codes and are never read back.
    fn pair_table(&self, i: usize, j: usize) -> (usize, impl Fn(u32, u32) -> usize) {
        let (wi, wj) = (self.codes[i].len(), self.codes[j].len());
        let (oi, oj) = (self.offset[i] as u32, self.offset[j] as u32);
        let cell = move |si: u32, sj: u32| (si - oi) as usize * (wj + 1) + (sj - oj) as usize;
        ((wi + 1) * (wj + 1), cell)
    }

    /// Every positioned pair at least `min_support` vectors contain.
    fn supported_pairs(&self, min_support: usize) -> Vec<Edge> {
        let mut edges = Vec::new();
        let mut table: Vec<u32> = Vec::new();
        for i in 0..self.m {
            for j in (i + 1)..self.m {
                if self.codes[i].is_empty() || self.codes[j].is_empty() {
                    continue;
                }
                let (cells, cell) = self.pair_table(i, j);
                table.clear();
                table.resize(cells, 0);
                for row in self.slots.chunks_exact(self.m) {
                    table[cell(row[i], row[j])] += 1;
                }
                for ri in 0..self.codes[i].len() {
                    for rj in 0..self.codes[j].len() {
                        let (a, b) = (self.element(i, ri), self.element(j, rj));
                        let support = table[cell(self.slot(a), self.slot(b))] as usize;
                        if support >= min_support {
                            edges.push(Edge {
                                pair: (a, b),
                                support,
                            });
                        }
                    }
                }
            }
        }
        edges
    }

    /// For every edge, the element outside its two positions that most of
    /// its vectors also contain, with that count — the smallest element on
    /// count ties. Only frequent elements are candidates: a third element
    /// below the support threshold alone cannot lift a triple over it.
    ///
    /// Sorts `edges` by element pair, which makes position pairs contiguous:
    /// one pass over the cluster per *position pair* finds every edge's
    /// vectors through the pair's dense table. The result is parallel to the
    /// sorted order.
    fn best_thirds(&self, edges: &mut [Edge]) -> Vec<Option<(Element, usize)>> {
        edges.sort_unstable_by_key(|e| e.pair);
        let total = self.total_slots;
        let mut best = Vec::with_capacity(edges.len());
        let mut edge_of: Vec<u32> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let positions = |e: &Edge| (e.pair.0.position as usize, e.pair.1.position as usize);
        for group in edges.chunk_by(|x, y| positions(x) == positions(y)) {
            let (i, j) = positions(&group[0]);
            let (cells, cell) = self.pair_table(i, j);
            edge_of.clear();
            edge_of.resize(cells, 0);
            for (e, edge) in group.iter().enumerate() {
                edge_of[cell(self.slot(edge.pair.0), self.slot(edge.pair.1))] = e as u32 + 1;
            }
            counts.clear();
            counts.resize(group.len() * total, 0);
            for row in self.slots.chunks_exact(self.m) {
                let e = edge_of[cell(row[i], row[j])];
                if e == 0 {
                    continue;
                }
                let counts = &mut counts[(e as usize - 1) * total..][..total];
                for &slot in row {
                    counts[slot as usize] += 1;
                }
            }
            for counts in counts.chunks_exact(total) {
                let mut top: Option<(Element, usize)> = None;
                for p in (0..self.m).filter(|&p| p != i && p != j) {
                    for rank in 0..self.codes[p].len() {
                        let c = counts[self.offset[p] + rank] as usize;
                        if c > top.map_or(0, |(_, best)| best) {
                            top = Some((self.element(p, rank), c));
                        }
                    }
                }
                best.push(top);
            }
        }
        best
    }
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
        let target = Combo {
            elements: vec![Element::new(0, 5), Element::new(1, 9), Element::new(2, 13)],
        };
        let found = table.combos().contains(&target);
        assert!(
            found,
            "expected the injected triple to be mined: {:?}",
            table.combos().first()
        );
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
        assert!(
            table.len() <= 4,
            "unexpectedly many combos: {}",
            table.len()
        );
    }

    #[test]
    fn combo_matching_and_addresses() {
        let combo = Combo {
            elements: vec![Element::new(0, 3), Element::new(2, 7)],
        };
        assert_eq!(combo.positions(), vec![0, 2]);
        let addresses: Vec<usize> = combo.elements().iter().map(Element::lut_address).collect();
        assert_eq!(addresses, vec![3, 2 * 256 + 7]);
        assert!(combo.matches(&[3, 99, 7, 0]));
        assert!(!combo.matches(&[3, 99, 8, 0]));
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

        let combo = Combo {
            elements: vec![Element::new(1, 10), Element::new(3, 200)],
        };
        let table = ComboTable {
            combos: Arc::new([combo.clone()]),
            support: Arc::new([5]),
        };
        let sums = table.partial_sums(&lut);
        let expected = lut.get(1, 10) + lut.get(3, 200);
        assert!((sums[0] - expected).abs() < 1e-6);

        // In a space, the sum lands right after the LUT and nothing past it
        // is written.
        let mut space = [lut.as_flat(), &[f32::NAN; 2]].concat();
        assert_eq!(table.write_partial_sums(4, &mut space), 4 * 256 + 1);
        assert_eq!(space[4 * 256].to_bits(), sums[0].to_bits());
        assert!(space[4 * 256 + 1].is_nan());
    }

    #[test]
    fn empty_input_is_handled() {
        let table = mine_cluster_combos(&[], 8, &MiningParams::default());
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
    }
}
