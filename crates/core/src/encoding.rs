//! Opt3 (online-format half): co-occurrence aware, PIM-friendly re-encoding.
//!
//! UpANNS stores encoded points as streams of 16-bit *direct addresses*
//! instead of 8-bit codebook indices:
//!
//! * a direct entry `a < 256·m` addresses LUT slot `a` directly
//!   (`a = position·256 + code`), so the DPU never multiplies (§4.3 notes
//!   multiplications are ~32 cycles on the DPU);
//! * a combination entry `a ≥ 256·m` addresses the cached partial sum of
//!   mined combination `a − 256·m`, replacing 2–3 lookups + adds with one.
//!
//! Each re-encoded vector is stored as `[length, entry₀, …]`. The per-cluster
//! *length reduction rate* (1 − avg-length / m) is the x-axis of Figure 14:
//! higher reduction ⇒ fewer WRAM lookups, fewer adds and fewer MRAM bytes ⇒
//! faster distance calculation.

use crate::cooccurrence::ComboTable;
use annkit::lut::{mark_code_blocks, LookupTable};
use annkit::simd::SCAN_LANES;

/// Entries of §4.3's unified WRAM region as the DPU addresses it: one per
/// `u16` value.
const ADDRESS_SPACE: usize = 1 << 16;

/// §4.3's unified region as a fixed space that any `u16` of an encoded
/// stream indexes without a check: a list's flat LUT at `[0, 256·m)`, its
/// cluster's combination partial sums at `256·m + i`, and past them
/// whatever an earlier list left, which the stream never addresses.
pub(crate) type AddressSpace = [f32; ADDRESS_SPACE];

/// A zeroed [`AddressSpace`] on the heap. It is allocated zeroed rather
/// than filled, so where the allocator maps fresh pages for it, the pages
/// no list writes are never made resident.
pub(crate) fn zeroed_space() -> Box<AddressSpace> {
    let Ok(space) = vec![0.0; ADDRESS_SPACE].into_boxed_slice().try_into() else {
        unreachable!("the vector has ADDRESS_SPACE entries")
    };
    space
}

/// A co-occurrence-aware encoded inverted list (one cluster).
#[derive(Debug, Clone)]
pub struct CaeList {
    m: usize,
    num_combos: usize,
    /// Entry stream: for each vector, `[len, addr₀, …, addr_{len−1}]`.
    entries: Vec<u16>,
    /// Start offset of each vector's record within `entries`.
    offsets: Vec<u32>,
    /// Code-block mask of the encoded codes ([`mark_code_blocks`]): the
    /// LUT blocks a record or a combination of this list can read.
    blocks: Vec<u32>,
}

impl CaeList {
    /// Re-encodes a cluster's packed PQ codes (`n × m` bytes) using the mined
    /// `combos`. Combos are applied greedily in table order (most frequent
    /// first) without overlapping positions.
    ///
    /// # Panics
    /// Panics if the packed buffer is not a multiple of `m` or if
    /// `256·m + combos.len()` would not fit in a `u16` address.
    pub fn encode(packed_codes: &[u8], m: usize, combos: &ComboTable) -> Self {
        assert!(
            packed_codes.len().is_multiple_of(m),
            "packed codes not a multiple of m"
        );
        assert!(
            256 * m + combos.len() <= u16::MAX as usize,
            "address space overflow: m={m}, combos={}",
            combos.len()
        );
        let n = packed_codes.len() / m;
        let mut entries = Vec::with_capacity(n * (m + 1));
        let mut offsets = Vec::with_capacity(n);

        for code in packed_codes.chunks_exact(m) {
            offsets.push(entries.len() as u32);
            let mut covered = vec![false; m];
            let mut record: Vec<u16> = Vec::with_capacity(m);

            // Greedy non-overlapping combo matching, most frequent first.
            for (idx, combo) in combos.combos().iter().enumerate() {
                if combo.matches(code) && combo.positions().iter().all(|&p| !covered[p]) {
                    for &p in &combo.positions() {
                        covered[p] = true;
                    }
                    record.push((256 * m + idx) as u16);
                }
            }
            // Remaining positions become direct LUT addresses.
            for (p, &c) in code.iter().enumerate() {
                if !covered[p] {
                    record.push((p * 256 + c as usize) as u16);
                }
            }

            entries.push(record.len() as u16);
            entries.extend_from_slice(&record);
        }

        // Combinations are mined from these same codes, so their elements
        // lie inside this mask too.
        let mut blocks = vec![0; m];
        mark_code_blocks(packed_codes, &mut blocks);
        Self {
            m,
            num_combos: combos.len(),
            entries,
            offsets,
            blocks,
        }
    }

    /// The code-block mask of the codes this list encodes: the LUT the
    /// kernel builds for it
    /// ([`LookupTable::rebuild_masked`](annkit::lut::LookupTable::rebuild_masked))
    /// computes these blocks only.
    pub(crate) fn code_blocks(&self) -> &[u32] {
        &self.blocks
    }

    /// The entries of an [`AddressSpace`] the stream can address,
    /// `256·m + num_combos`: the LUT and the partial sums an assignment must
    /// build before [`adc_scan_range`](Self::adc_scan_range).
    pub(crate) fn addresses(&self) -> usize {
        256 * self.m + self.num_combos
    }

    /// Number of vectors in the list.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The record of vector `i`: its address entries (without the length
    /// slot).
    pub fn record(&self, i: usize) -> &[u16] {
        let start = self.offsets[i] as usize;
        let len = self.entries[start] as usize;
        &self.entries[start + 1..start + 1 + len]
    }

    /// Average encoded length per vector (address entries only).
    pub(crate) fn mean_length(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: usize = (0..self.len()).map(|i| self.record(i).len()).sum();
        total as f64 / self.len() as f64
    }

    /// The length reduction rate relative to the plain `m`-entry encoding
    /// (the x-axis of Figure 14).
    pub(crate) fn reduction_rate(&self) -> f64 {
        if self.m == 0 {
            return 0.0;
        }
        (1.0 - self.mean_length() / self.m as f64).max(0.0)
    }

    /// Serializes the stream as little-endian bytes for MRAM placement.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * 2);
        for &e in &self.entries {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out
    }

    /// Byte range `[start, end)` of vector `i`'s record (including its length
    /// slot) within [`to_bytes`](Self::to_bytes)' output — used to plan MRAM
    /// reads.
    pub fn record_byte_range(&self, i: usize) -> (usize, usize) {
        let start = self.offsets[i] as usize;
        let len = self.entries[start] as usize;
        (start * 2, (start + 1 + len) * 2)
    }

    /// Computes the ADC distance of vector `i` given a LUT and the cluster's
    /// cached combo partial sums (must come from the same [`ComboTable`] the
    /// list was encoded with). The per-record definition of the arithmetic
    /// the DPU kernel executes — the oracle
    /// `adc_scan_range` is tested against, bit for bit.
    pub fn adc_distance(&self, i: usize, lut: &LookupTable, combo_sums: &[f32]) -> f32 {
        let mut sum = 0.0f32;
        for &entry in self.record(i) {
            let entry = entry as usize;
            if entry < 256 * self.m {
                sum += lut.get_flat(entry);
            } else {
                sum += combo_sums[entry - 256 * self.m];
            }
        }
        sum
    }

    /// The ADC scan of records `[start, end)`: clears `out` and appends one
    /// distance per record.
    ///
    /// `space` is §4.3's unified WRAM region as the DPU addresses it — the
    /// flat LUT (`256·m` entries) followed by the cluster's combination
    /// partial sums, in a space any `u16` indexes — so every entry of the
    /// stream, direct or combination, is one load and one add with no
    /// branch on its kind and no bounds check. The stream reads
    /// `[0, 256·m + num_combos)` only; what lies past it is never read. The
    /// scan walks the entry stream itself (one `offsets` lookup for the
    /// whole range) with [`SCAN_LANES`] records in flight, so the float
    /// adds of different records overlap; each record still sums its own
    /// entries in stream order from `0.0`, which keeps every distance
    /// bitwise-equal to [`adc_distance`](Self::adc_distance).
    ///
    /// # Panics
    /// Panics if the range is not within the list.
    pub(crate) fn adc_scan_range(
        &self,
        space: &AddressSpace,
        start: usize,
        end: usize,
        out: &mut Vec<f32>,
    ) {
        assert!(
            start <= end && end <= self.len(),
            "record range out of bounds"
        );
        out.clear();
        if start == end {
            return;
        }
        out.reserve(end - start);
        let stream = &self.entries[self.offsets[start] as usize..];
        let sum_record = |record: &[u16], mut sum: f32| {
            for &entry in record {
                sum += space[entry as usize];
            }
            sum
        };
        let mut pos = 0usize;
        let mut remaining = end - start;
        while remaining >= SCAN_LANES {
            // Slice the next SCAN_LANES records off the stream; their common
            // prefix length runs lane-interleaved, the ragged rest per lane.
            let mut records = [&stream[..0]; SCAN_LANES];
            let mut common = usize::MAX;
            for record in &mut records {
                let len = stream[pos] as usize;
                *record = &stream[pos + 1..pos + 1 + len];
                common = common.min(len);
                pos += 1 + len;
            }
            // Every head is `common` entries long, so the interleaved loop
            // indexes them with no check.
            let mut heads = records;
            for head in &mut heads {
                *head = &head[..common];
            }
            let mut acc = [0.0f32; SCAN_LANES];
            for j in 0..common {
                for (a, head) in acc.iter_mut().zip(&heads) {
                    *a += space[head[j] as usize];
                }
            }
            for (a, record) in acc.iter_mut().zip(&records) {
                *a = sum_record(&record[common..], *a);
            }
            out.extend_from_slice(&acc);
            remaining -= SCAN_LANES;
        }
        for _ in 0..remaining {
            let len = stream[pos] as usize;
            out.push(sum_record(&stream[pos + 1..pos + 1 + len], 0.0));
            pos += 1 + len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooccurrence::{mine_cluster_combos, MiningParams};
    use annkit::lut::build_masked_into;
    use annkit::pq::ProductQuantizer;
    use annkit::vector::Dataset;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A cluster of codes where 40 % of vectors share a positioned triple.
    fn patterned_codes(n: usize, m: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * m);
        for i in 0..n {
            for p in 0..m {
                out.push(((i * 13 + p * 7) % 240) as u8);
            }
            if i % 5 < 2 {
                let base = out.len() - m;
                out[base + 1] = 42;
                out[base + 2] = 43;
                out[base + 3] = 44;
            }
        }
        out
    }

    fn trained_lut(m: usize, dim: usize) -> (ProductQuantizer, LookupTable) {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut ds = Dataset::new(dim);
        let mut v = vec![0.0f32; dim];
        for _ in 0..400 {
            for x in v.iter_mut() {
                *x = rng.gen_range(-1.0..1.0);
            }
            ds.push(&v);
        }
        let pq = ProductQuantizer::train(&ds, m, 9);
        let lut = LookupTable::build(&pq, ds.vector(0));
        (pq, lut)
    }

    #[test]
    fn plain_encoding_has_m_entries_and_zero_reduction() {
        let codes = patterned_codes(100, 8);
        let plain = CaeList::encode(&codes, 8, &ComboTable::empty());
        assert_eq!(plain.len(), 100);
        assert_eq!(plain.mean_length(), 8.0);
        assert_eq!(plain.reduction_rate(), 0.0);
        assert_eq!(plain.record(0).len(), 8);
        assert_eq!(plain.to_bytes().len(), 100 * 9 * 2);
    }

    #[test]
    fn cae_encoding_is_shorter_and_lossless() {
        let m = 8;
        let codes = patterned_codes(500, m);
        let combos = mine_cluster_combos(&codes, m, &MiningParams::default());
        assert!(!combos.is_empty());
        let cae = CaeList::encode(&codes, m, &combos);
        assert!(cae.reduction_rate() > 0.05, "rate {}", cae.reduction_rate());
        assert!(cae.mean_length() < m as f64);

        // Losslessness: the CAE ADC distance equals the plain LUT ADC distance
        // for every vector.
        let (_pq, lut) = trained_lut(m, 16);
        let sums = combos.partial_sums(&lut);
        for i in 0..cae.len() {
            let code = &codes[i * m..(i + 1) * m];
            let direct: f32 = lut.adc_distance(code);
            let via_cae = cae.adc_distance(i, &lut, &sums);
            assert!(
                (direct - via_cae).abs() < 1e-3,
                "vector {i}: {direct} vs {via_cae}"
            );
        }
    }

    #[test]
    fn combos_never_overlap_positions() {
        let m = 8;
        let codes = patterned_codes(300, m);
        let combos = mine_cluster_combos(&codes, m, &MiningParams::default());
        let cae = CaeList::encode(&codes, m, &combos);
        for i in 0..cae.len() {
            let mut covered = vec![0usize; m];
            for &entry in cae.record(i) {
                let entry = entry as usize;
                if entry < 256 * m {
                    covered[entry / 256] += 1;
                } else {
                    for p in combos.combos()[entry - 256 * m].positions() {
                        covered[p] += 1;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "vector {i} coverage {covered:?}"
            );
        }
    }

    #[test]
    fn byte_ranges_and_serialization_are_consistent() {
        let m = 8;
        let codes = patterned_codes(50, m);
        let combos = mine_cluster_combos(&codes, m, &MiningParams::default());
        let cae = CaeList::encode(&codes, m, &combos);
        let bytes = cae.to_bytes();
        assert_eq!(bytes.len(), cae.record_byte_range(cae.len() - 1).1);
        for i in 0..cae.len() {
            let (start, end) = cae.record_byte_range(i);
            assert!(end <= bytes.len());
            // First u16 in the range is the record length.
            let len = u16::from_le_bytes([bytes[start], bytes[start + 1]]) as usize;
            assert_eq!(len, cae.record(i).len());
            assert_eq!(end - start, (len + 1) * 2);
        }
    }

    #[test]
    fn higher_cooccurrence_gives_higher_reduction() {
        let m = 8;
        // 80 % patterned vs 20 % patterned.
        let mut heavy = Vec::new();
        let mut light = Vec::new();
        for i in 0..400usize {
            let mut code: Vec<u8> = (0..m).map(|p| ((i * 13 + p * 7) % 240) as u8).collect();
            let mut code2 = code.clone();
            if i % 10 < 8 {
                code[1] = 42;
                code[2] = 43;
                code[3] = 44;
            }
            if i % 10 < 2 {
                code2[1] = 42;
                code2[2] = 43;
                code2[3] = 44;
            }
            heavy.extend_from_slice(&code);
            light.extend_from_slice(&code2);
        }
        let params = MiningParams::default();
        let cae_heavy = CaeList::encode(&heavy, m, &mine_cluster_combos(&heavy, m, &params));
        let cae_light = CaeList::encode(&light, m, &mine_cluster_combos(&light, m, &params));
        assert!(
            cae_heavy.reduction_rate() > cae_light.reduction_rate(),
            "heavy {} vs light {}",
            cae_heavy.reduction_rate(),
            cae_light.reduction_rate()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The blocked range scan equals per-record `adc_distance` bit for
        /// bit: arbitrary entry streams (any mix of direct and combination
        /// addresses, record lengths from 0 up past `m`, lists with zero
        /// combos), arbitrary table contents, and every kind of range —
        /// empty, shorter than SCAN_LANES, ragged tails, the whole list.
        #[test]
        fn range_scan_equals_per_record_adc_distance_bitwise(
            m in 1usize..7,
            num_combos in 0usize..30,
            lens in prop::collection::vec(0usize..10, 0..70),
            cut in (0usize..1000, 0usize..1000),
            seed in 0u64..1_000_000,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // A LUT with arbitrary contents: one-dimensional sub-spaces, so
            // entry (sub, code) is (residual[sub] − codebook[sub][code])².
            let codebooks: Vec<f32> = (0..m * 256).map(|_| rng.gen_range(-9.0f32..9.0)).collect();
            let pq = ProductQuantizer::from_codebooks(m, m, codebooks);
            let residual: Vec<f32> = (0..m).map(|_| rng.gen_range(-9.0f32..9.0)).collect();
            let lut = LookupTable::build(&pq, &residual);
            let combo_sums: Vec<f32> = (0..num_combos).map(|_| rng.gen_range(0.0f32..500.0)).collect();
            // NaN past the entries the stream addresses: reading one turns
            // the bitwise comparison red.
            let mut space = zeroed_space();
            space.fill(f32::NAN);
            space[..256 * m].copy_from_slice(lut.as_flat());
            space[256 * m..][..num_combos].copy_from_slice(&combo_sums);

            let mut entries = Vec::new();
            let mut offsets = Vec::new();
            for &len in &lens {
                offsets.push(entries.len() as u32);
                entries.push(len as u16);
                entries.extend((0..len).map(|_| rng.gen_range(0..256 * m + num_combos) as u16));
            }
            // The scan never reads the mask.
            let blocks = Vec::new();
            let cae = CaeList { m, num_combos, entries, offsets, blocks };

            let n = cae.len();
            let (a, b) = (cut.0 % (n + 1), cut.1 % (n + 1));
            let mut out = vec![f32::NAN; 3]; // stale contents must be cleared
            for (start, end) in [(a.min(b), a.max(b)), (0, n), (a, a)] {
                cae.adc_scan_range(&space, start, end, &mut out);
                prop_assert_eq!(out.len(), end - start);
                for (i, got) in (start..end).zip(&out) {
                    prop_assert_eq!(got.to_bits(), cae.adc_distance(i, &lut, &combo_sums).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "record range out of bounds")]
    fn range_scan_rejects_a_range_past_the_list() {
        let cae = CaeList::encode(&patterned_codes(4, 8), 8, &ComboTable::empty());
        cae.adc_scan_range(&zeroed_space(), 2, 5, &mut Vec::new());
    }

    /// The scan reads only what an assignment builds: against a space that
    /// is NaN past `256·m + num_combos` and on every LUT block outside the
    /// list's code mask, each distance is bitwise `adc_distance` over the
    /// dense LUT, for lists with many combinations, few and none.
    #[test]
    fn the_scan_reads_only_the_entries_an_assignment_builds() {
        let m = 8;
        let (pq, _) = trained_lut(m, 16);
        let residual: Vec<f32> = (0..16).map(|i| i as f32 * 0.1 - 0.7).collect();
        let dense = LookupTable::build(&pq, &residual);
        let mut space = zeroed_space();
        let mut combo_counts = Vec::new();
        // Codes below `rows` only: 9 rows leave most LUT blocks unmasked.
        for (n, rows) in [(203, 9), (500, 240), (37, 240), (1, 240)] {
            let codes: Vec<u8> = patterned_codes(n, m).iter().map(|&c| c % rows).collect();
            let combos = mine_cluster_combos(&codes, m, &MiningParams::default());
            let cae = CaeList::encode(&codes, m, &combos);
            combo_counts.push(combos.len());

            space.fill(f32::NAN);
            build_masked_into(&pq, &residual, cae.code_blocks(), &mut space[..]);
            for (row, &bits) in space.chunks_exact_mut(256).zip(cae.code_blocks()) {
                for (b, block) in row.chunks_exact_mut(SCAN_LANES).enumerate() {
                    if bits & (1 << b) == 0 {
                        block.fill(f32::NAN);
                    }
                }
            }
            assert_eq!(
                combos.write_partial_sums(m, &mut space[..]),
                cae.addresses()
            );

            let sums = combos.partial_sums(&dense);
            let mut out = Vec::new();
            cae.adc_scan_range(&space, 0, cae.len(), &mut out);
            assert_eq!(out.len(), n);
            for (i, got) in out.iter().enumerate() {
                let want = cae.adc_distance(i, &dense, &sums);
                assert!(!want.is_nan(), "list of {n}: vector {i}");
                assert_eq!(got.to_bits(), want.to_bits(), "list of {n}: vector {i}");
            }
        }
        assert!(combo_counts[0] > 100, "combinations: {combo_counts:?}");
        assert_eq!(combo_counts[3], 0, "combinations: {combo_counts:?}");
    }

    #[test]
    #[should_panic(expected = "not a multiple of m")]
    fn ragged_codes_rejected() {
        let _ = CaeList::encode(&[1, 2, 3], 2, &ComboTable::empty());
    }
}
