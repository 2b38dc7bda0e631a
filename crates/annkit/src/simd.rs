//! The hot kernels, each one portable implementation: the one-vector-
//! against-many-rows distance block over a column-major table (dense or
//! block-masked), the nearest-row argmin over it and the top-k pre-filter
//! mask, each compiled twice — as is, and with AVX2 enabled behind runtime
//! feature detection — plus the pair distance and the ADC scan, compiled
//! once.
//!
//! Neither the pair distance nor the ADC scan has a vector path: an AVX2
//! gather over the `m × 256` f32 LUT measured 1.15–1.30× *slower* than the
//! cache-blocked scalar loop on the repo benchmark's `batch-scan` workload,
//! so [`adc_scan_blocked`] is the scan and [`adc_scan_reference`] the
//! oracle it is tested against; an intrinsics pair kernel beat
//! [`l2_squared_scalar`] by 3–11 % in isolation (29.7 vs 33.4 ns per 128-d
//! pair) but has no caller on the query path, so the portable tree is the
//! one pair kernel.
//!
//! # The answer-identity contract
//!
//! Every committed bench record and the threaded runtime's deterministic
//! replay twin depend on search answers being a pure function of
//! `(query, k, nprobe, index)` — *never* of which machine ran the kernel.
//! This module therefore holds itself to a stronger bar than "epsilon
//! close": **every compilation is bitwise-identical to its scalar
//! reference**, proven by the `simd_equivalence` proptests:
//!
//! * the blocked ADC scan sums the same `m` table entries per record in the
//!   same order as the naive loop (lanes are independent records);
//! * the column kernel (every one-vector-against-many-centroids distance:
//!   k-means assignment, PQ encode, the coarse cluster filter and LUT
//!   construction over the codebook blocks a list can address) makes each
//!   SIMD lane one row that runs the scalar reduction tree on its own — the
//!   blocked scan's idea, so there is no horizontal sum and no transpose
//!   whose order could differ — and Rust never contracts a multiply and an
//!   add into an FMA, so both compilations round alike; which rows it
//!   computes (a block mask, a block width) never changes a row's bits;
//! * the argmin and the top-k pre-filter compare exactly (no rounding is
//!   involved), and the argmin's lanes are merged so that it returns what
//!   the serial first-minimum scan returns.
//!
//! # Where `unsafe` lives
//!
//! This module is the **only** place in the workspace where `unsafe` is
//! permitted: the workspace lints deny `unsafe_code` in every target and
//! this file alone re-allows it, so `cargo build` rejects the keyword
//! anywhere else. There are three unsafe blocks, each a call into a
//! `#[target_feature(enable = "avx2")]` wrapper over portable,
//! bounds-checked code, whose one precondition — the CPU has AVX2 — the
//! dispatcher establishes:
//!
//! * the column kernel, one call for both of its shapes — cluster
//!   filtering ([`nearest_centroids`](crate::distance::nearest_centroids),
//!   run by [`IvfPqIndex::filter_clusters`](crate::ivf::IvfPqIndex::filter_clusters))
//!   and LUT construction
//!   ([`LookupTable::rebuild_masked`](crate::lut::LookupTable::rebuild_masked)
//!   and its all-blocks form `rebuild`);
//! * the column kernel followed by the argmin, in one AVX2 call — k-means
//!   assignment, PQ encode and `KMeans::assign`
//!   ([`nearest_centroid`](crate::distance::nearest_centroid));
//! * the top-k pre-filter mask — [`TopK::push_batch_with`](crate::topk::TopK::push_batch_with).
//!
//! # Dispatch policy
//!
//! [`active`] resolves once per process: an explicit [`force_backend`]
//! call (used by the forced-fallback equivalence tests) wins, then the
//! `UPANNS_FORCE_SCALAR` environment variable, then
//! `is_x86_feature_detected!("avx2")`. Every dispatched kernel also
//! exposes a `*_with(Backend, ..)` entry point so benches and tests can pin
//! either compilation explicitly inside a single process.
#![allow(
    unsafe_code,
    reason = "calls into `#[target_feature]` kernels, proven bitwise-equal to scalar references"
)]

use std::sync::OnceLock;

/// Which implementation of the hot kernels to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable chunked scalar code (autovectorization-friendly).
    Scalar,
    /// The same portable code compiled with x86-64 AVX2 enabled.
    Avx2,
}

static FORCED: OnceLock<Backend> = OnceLock::new();
static ACTIVE: OnceLock<Backend> = OnceLock::new();

/// The backend the dispatching kernel entry points use, resolved once per
/// process: [`force_backend`] override first, then the
/// `UPANNS_FORCE_SCALAR` environment variable, then CPU feature detection.
pub fn active() -> Backend {
    *ACTIVE.get_or_init(|| {
        if let Some(f) = FORCED.get() {
            return *f;
        }
        if std::env::var_os("UPANNS_FORCE_SCALAR").is_some_and(|v| v != "0") {
            return Backend::Scalar;
        }
        detect()
    })
}

/// What runtime detection reports for this CPU, ignoring any override.
pub fn detect() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// Pins the process-wide dispatch to `backend` for tests that must observe
/// a specific path through the *dispatching* entry points (each Rust
/// integration-test binary is its own process, so a test file can claim
/// the dispatch for itself by calling this first).
///
/// Returns `true` when [`active`] will report `backend` — i.e. the call
/// happened before the first dispatch (or agreed with it). Production code
/// never calls this.
pub fn force_backend(backend: Backend) -> bool {
    let _ = FORCED.set(backend);
    active() == backend
}

// ---------------------------------------------------------------------------
// Distance kernels
// ---------------------------------------------------------------------------

/// The pair distance ([`l2_squared`](crate::distance::l2_squared)): 4-lane
/// accumulators fed in chunk order, combined left-associatively, sequential
/// tail. This is the exact reduction tree each lane of the column kernel
/// reproduces bitwise.
#[inline]
pub fn l2_squared_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "distance dimension mismatch");
    let mut acc = [0.0f32; 4];
    let (a_chunks, a_tail) = a.as_chunks::<4>();
    let (b_chunks, b_tail) = b.as_chunks::<4>();
    for (ca, cb) in a_chunks.iter().zip(b_chunks) {
        for lane in 0..4 {
            let d = ca[lane] - cb[lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Squared L2 distance from `query` to each of `out.len()` rows of a
/// *column-major* table: component `j` of row `r` is `cols[j * out.len() +
/// r]` ([`to_columns`](crate::distance::to_columns)) — one vector against
/// the centroids of one quantizer, the kernel of cluster filtering
/// ([`nearest_centroids`](crate::distance::nearest_centroids)) and, with an
/// argmin after it, of k-means assignment and PQ encode
/// ([`l2_squared_cols_argmin`]). Runs on the best runtime-detected backend.
///
/// Each SIMD lane is one row running [`l2_squared_scalar`]'s reduction tree
/// on its own, so every entry is bitwise-equal to
/// `l2_squared_scalar(query, row)` on every backend, with no horizontal sum
/// and no transpose to argue about. Rows go [`WIDE_ROWS`] at a time, then
/// the remaining rows one at a time.
///
/// # Panics
/// Panics if `query` is empty or `cols.len() != out.len() * query.len()`.
#[inline]
pub(crate) fn l2_squared_cols(query: &[f32], cols: &[f32], out: &mut [f32]) {
    l2_squared_cols_with(active(), query, cols, out)
}

/// `l2_squared_cols` on an explicit backend (bitwise-equal across
/// backends).
pub fn l2_squared_cols_with(backend: Backend, query: &[f32], cols: &[f32], out: &mut [f32]) {
    l2_squared_cols_dispatch(backend, query, cols, None, out)
}

/// The column kernel over [`MASK_ROWS`] rows, computing only the
/// [`SCAN_LANES`]-row blocks set in `blocks` — bit `b` covers rows
/// `8b..8b + 8` — and leaving every other entry of `out` as it was: LUT
/// construction over the codebook blocks a list's codes can address
/// ([`LookupTable::rebuild_masked`](crate::lut::LookupTable::rebuild_masked)),
/// with `u32::MAX` as the dense build. Runs on the best runtime-detected
/// backend.
///
/// Every entry it writes is bitwise the entry [`l2_squared_cols`] writes.
///
/// # Panics
/// Panics if `query` is empty, `out.len() != MASK_ROWS` or
/// `cols.len() != MASK_ROWS * query.len()`.
#[inline]
pub(crate) fn l2_squared_cols_blocks(query: &[f32], cols: &[f32], blocks: u32, out: &mut [f32]) {
    l2_squared_cols_blocks_with(active(), query, cols, blocks, out)
}

/// `l2_squared_cols_blocks` on an explicit backend (bitwise-equal across
/// backends).
pub fn l2_squared_cols_blocks_with(
    backend: Backend,
    query: &[f32],
    cols: &[f32],
    blocks: u32,
    out: &mut [f32],
) {
    assert_eq!(out.len(), MASK_ROWS, "a block mask covers MASK_ROWS rows");
    l2_squared_cols_dispatch(backend, query, cols, Some(blocks), out)
}

/// Rows of the block-masked column kernel: one bit of a `u32` per
/// [`SCAN_LANES`] rows — a PQ sub-quantizer's 256 centroids.
pub const MASK_ROWS: usize = 32 * SCAN_LANES;

/// Rows per block of the dense column kernel: 32 rows × 4 accumulators fill
/// the sixteen 8-lane AVX2 registers, so each broadcast query component
/// feeds four independent vector adds. On the coarse filter (512 × 128-d,
/// nprobe 8, select included) this width measured 6.2 µs per query, where
/// [`SCAN_LANES`]-row blocks measured 9.1 µs and the row-major AVX2 kernel
/// it replaced 10.1 µs (medians of eight runs on one core of a 2-vCPU Xeon
/// VM).
pub const WIDE_ROWS: usize = 32;

/// The one entry into the column kernel for both of its shapes: every row in
/// [`WIDE_ROWS`]-row blocks (`blocks: None`), or the [`SCAN_LANES`]-row
/// blocks set in `blocks`.
fn l2_squared_cols_dispatch(
    backend: Backend,
    query: &[f32],
    cols: &[f32],
    blocks: Option<u32>,
    out: &mut [f32],
) {
    assert_column_shape(query, cols, out);
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 {
        // SAFETY: the Avx2 backend is only handed out by `detect()` (which
        // verified the feature), by tests on machines where `force_backend`
        // succeeded, or by benches that consulted `detect()` themselves. The
        // callee is the safe portable kernel below compiled with AVX2
        // enabled — no intrinsics, every access bounds-checked.
        return unsafe { x86::l2_squared_cols_avx2(query, cols, blocks, out) };
    }
    let _ = backend;
    l2_squared_cols_lanes(query, cols, blocks, out)
}

/// The column kernel's one precondition: a non-empty query and `out.len()`
/// columns of it in `cols`.
fn assert_column_shape(query: &[f32], cols: &[f32], out: &[f32]) {
    assert!(!query.is_empty(), "column distance needs a non-empty query");
    assert_eq!(
        cols.len(),
        out.len() * query.len(),
        "column buffer size mismatch"
    );
}

/// The column kernel. Plain Rust, compiled twice — as is, and inlined into
/// `x86::l2_squared_cols_avx2` where the lane loops become 8-wide vector
/// instructions. Rust never contracts a multiply and an add into an FMA, so
/// both compilations round identically. The masked shape passes the
/// constant [`MASK_ROWS`] as the row count, so each block's column
/// arithmetic is shifts and its bounds checks fold away; with the row count
/// a runtime value, every 8-row block paid two integer divisions.
#[inline(always)]
fn l2_squared_cols_lanes(query: &[f32], cols: &[f32], blocks: Option<u32>, out: &mut [f32]) {
    let n = out.len();
    match blocks {
        None => {
            let full = n / WIDE_ROWS * WIDE_ROWS;
            for first in (0..full).step_by(WIDE_ROWS) {
                l2_squared_cols_block::<WIDE_ROWS>(query, cols, n, first, out);
            }
            for first in full..n {
                l2_squared_cols_block::<1>(query, cols, n, first, out);
            }
        }
        Some(mut bits) => {
            while bits != 0 {
                let first = bits.trailing_zeros() as usize * SCAN_LANES;
                bits &= bits - 1;
                l2_squared_cols_block::<SCAN_LANES>(query, cols, MASK_ROWS, first, out);
            }
        }
    }
}

/// Rows `first..first + L` of the column kernel, lane `l` being row
/// `first + l`. Per lane this is [`l2_squared_scalar`] verbatim: four
/// accumulators fed by component index mod 4, `((a0 + a1) + a2) + a3`, then
/// the `d % 4` tail components in order; lanes never mix.
#[inline(always)]
fn l2_squared_cols_block<const L: usize>(
    query: &[f32],
    cols: &[f32],
    n: usize,
    first: usize,
    out: &mut [f32],
) {
    // The one bound every column slice below stays inside.
    assert!(first + L <= n, "row block out of range");
    let (quads, tail) = query.as_chunks::<4>();
    let (quad_cols, tail_cols) = cols.split_at(quads.len() * 4 * n);
    let mut acc = [[0.0f32; L]; 4];
    for (quad, cols) in quads.iter().zip(quad_cols.chunks_exact(4 * n)) {
        for (a, (&q, column)) in acc.iter_mut().zip(quad.iter().zip(cols.chunks_exact(n))) {
            for (a, &c) in a.iter_mut().zip(&column[first..first + L]) {
                let d = q - c;
                *a += d * d;
            }
        }
    }
    let sums = &mut out[first..first + L];
    for (l, sum) in sums.iter_mut().enumerate() {
        *sum = acc[0][l] + acc[1][l] + acc[2][l] + acc[3][l];
    }
    for (&q, column) in tail.iter().zip(tail_cols.chunks_exact(n)) {
        for (sum, &c) in sums.iter_mut().zip(&column[first..first + L]) {
            let d = q - c;
            *sum += d * d;
        }
    }
}

// ---------------------------------------------------------------------------
// Nearest row
// ---------------------------------------------------------------------------

/// The nearest of `out.len()` rows of a column-major table to `query`, as
/// `(row, distance)`: [`l2_squared_cols`] into `out`, which is left holding
/// every row's distance, then the argmin over it, in one call — k-means
/// assignment and PQ encode
/// ([`nearest_centroid`](crate::distance::nearest_centroid)). Runs on the
/// best runtime-detected backend.
///
/// # Panics
/// Panics if `query` is empty or `cols.len() != out.len() * query.len()`.
#[inline]
pub(crate) fn l2_squared_cols_argmin(query: &[f32], cols: &[f32], out: &mut [f32]) -> (usize, f32) {
    l2_squared_cols_argmin_with(active(), query, cols, out)
}

/// `l2_squared_cols_argmin` on an explicit backend. On every backend it
/// returns what the serial scan `if d < best.1 { best = (i, d) }` from
/// `(0, ∞)` over the distances returns: the first row of the least distance
/// (of `-0.0` and `0.0` too, the first), never a NaN, and `(0, ∞)` when no
/// distance is below `∞`.
pub fn l2_squared_cols_argmin_with(
    backend: Backend,
    query: &[f32],
    cols: &[f32],
    out: &mut [f32],
) -> (usize, f32) {
    assert_column_shape(query, cols, out);
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 {
        // SAFETY: feature availability as in `l2_squared_cols_dispatch`;
        // the callee is `l2_squared_cols_lanes` and `argmin_lanes` compiled
        // with AVX2 enabled.
        return unsafe { x86::l2_squared_cols_argmin_avx2(query, cols, out) };
    }
    let _ = backend;
    l2_squared_cols_lanes(query, cols, None, out);
    argmin_lanes(out)
}

/// The serial first-minimum scan over `values`, in [`SCAN_LANES`] lanes:
/// lane `l` runs `if v < least { least = v; at = i }` over every
/// `SCAN_LANES`-th value from `l`, a compare and two selects that compile
/// to vector instructions. A lane keeps the first index of its least value
/// and never takes a NaN, so the least lane value, the lowest lane index
/// among equal ones, is the serial scan's answer over the whole blocks; the
/// `values.len() % SCAN_LANES` tail continues it serially. Plain Rust,
/// compiled twice like [`l2_squared_cols_lanes`].
#[inline(always)]
fn argmin_lanes(values: &[f32]) -> (usize, f32) {
    assert!(values.len() < 1 << 31, "fewer than 2^31 values");
    let (blocks, tail) = values.as_chunks::<SCAN_LANES>();
    let mut least = [f32::INFINITY; SCAN_LANES];
    let mut at = [0u32; SCAN_LANES];
    let mut index: [u32; SCAN_LANES] = std::array::from_fn(|l| l as u32);
    for block in blocks {
        for l in 0..SCAN_LANES {
            // Selects through an all-ones mask: with AVX2 a compare, a min
            // and a blend per block, 68 ns over 256 values where `if take`
            // selects, which round-trip the mask through bytes, took 249 ns
            // and the serial scan 318 ns (one core of a 2-vCPU Xeon VM).
            let take = u32::from(block[l] < least[l]).wrapping_neg();
            least[l] = f32::from_bits(block[l].to_bits() & take | least[l].to_bits() & !take);
            at[l] = index[l] & take | at[l] & !take;
            index[l] += SCAN_LANES as u32;
        }
    }
    // A lane that took nothing holds (∞, 0), which changes nothing here.
    let mut best = (0usize, f32::INFINITY);
    for (&v, &i) in least.iter().zip(&at) {
        let i = i as usize;
        if v < best.1 || (v == best.1 && i < best.0) {
            best = (i, v);
        }
    }
    let whole = values.len() - tail.len();
    for (i, &v) in tail.iter().enumerate() {
        if v < best.1 {
            best = (whole + i, v);
        }
    }
    best
}

// ---------------------------------------------------------------------------
// ADC scan
// ---------------------------------------------------------------------------

/// How many records the blocked scan keeps in flight — eight records share
/// one LUT row per sub-quantizer step (a 1 KB row of the table) — and the
/// lane count of the top-k pre-filter mask.
pub const SCAN_LANES: usize = 8;

/// Naive record-major scalar ADC scan — the reference implementation every
/// other path must match bitwise. `table` is row-major (`sub * 256 + code`,
/// `m * 256` entries); `packed` holds `n` records of `m` code bytes.
pub fn adc_scan_reference(table: &[f32], m: usize, packed: &[u8], out: &mut Vec<f32>) {
    debug_assert_eq!(table.len(), m * 256, "LUT table size mismatch");
    debug_assert!(
        packed.len().is_multiple_of(m),
        "packed code buffer not a multiple of m"
    );
    out.clear();
    out.reserve(packed.len() / m);
    for code in packed.chunks_exact(m) {
        let mut sum = 0.0f32;
        for (sub, &c) in code.iter().enumerate() {
            sum += table[sub * 256 + c as usize];
        }
        out.push(sum);
    }
}

/// The ADC scan: appends one distance per record into `out` (cleared
/// first). Cache-blocked — [`SCAN_LANES`] records in flight, iterated
/// sub-major so all lanes read the *same* 256-entry LUT row before moving
/// to the next, a transposed access pattern over the row-major table that
/// the compiler unrolls into independent loads. Per record the `m` partial
/// sums are added in sub order, so the result is bitwise-identical to
/// [`adc_scan_reference`].
///
/// # Panics
/// Panics if `table.len() != m * 256` or `packed.len()` is not a multiple
/// of `m`.
pub fn adc_scan_blocked(table: &[f32], m: usize, packed: &[u8], out: &mut Vec<f32>) {
    assert_eq!(table.len(), m * 256, "LUT table size mismatch");
    assert!(
        packed.len().is_multiple_of(m),
        "packed code buffer not a multiple of m"
    );
    let n = packed.len() / m;
    out.clear();
    out.reserve(n);
    let mut r = 0;
    while r + SCAN_LANES <= n {
        let block = &packed[r * m..(r + SCAN_LANES) * m];
        let mut acc = [0.0f32; SCAN_LANES];
        for sub in 0..m {
            let row = &table[sub * 256..sub * 256 + 256];
            for (lane, a) in acc.iter_mut().enumerate() {
                *a += row[block[lane * m + sub] as usize];
            }
        }
        out.extend_from_slice(&acc);
        r += SCAN_LANES;
    }
    for code in packed[r * m..].chunks_exact(m) {
        let mut sum = 0.0f32;
        for (sub, &c) in code.iter().enumerate() {
            sum += table[sub * 256 + c as usize];
        }
        out.push(sum);
    }
}

// ---------------------------------------------------------------------------
// Top-k pre-filter
// ---------------------------------------------------------------------------

/// Lane mask of `values[i] <= threshold` for up to [`SCAN_LANES`] values
/// (bit `i` set iff lane `i` passes). `NaN <= t` is false in every lane,
/// exactly as in the scalar comparison, so NaN candidates are filtered the
/// same way `TopK::push` rejects them against a full heap. Comparison is
/// exact — no rounding — so the mask is identical across backends.
///
/// # Panics
/// Panics if `values.len() > SCAN_LANES`.
pub(crate) fn le_mask_with(backend: Backend, values: &[f32], threshold: f32) -> u32 {
    assert!(values.len() <= SCAN_LANES, "at most SCAN_LANES values");
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 {
        if let Ok(block) = <&[f32; SCAN_LANES]>::try_from(values) {
            // SAFETY: feature availability as in `l2_squared_cols_dispatch`;
            // the callee is `le_mask_lanes` compiled with AVX2 enabled.
            return unsafe { x86::le_mask_avx2(block, threshold) };
        }
    }
    let _ = backend;
    le_mask_lanes(values, threshold)
}

/// The pre-filter mask, one branchless compare per lane. Plain Rust,
/// compiled twice like [`l2_squared_cols_lanes`]: as is, and inlined into
/// `x86::le_mask_avx2` over a full block, where the compiler vectorizes
/// part of the eight compares.
#[inline(always)]
fn le_mask_lanes(values: &[f32], threshold: f32) -> u32 {
    let mut mask = 0u32;
    for (i, &v) in values.iter().enumerate() {
        mask |= u32::from(v <= threshold) << i;
    }
    mask
}

// ---------------------------------------------------------------------------
// AVX2 compilations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// `l2_squared_cols_lanes` compiled with AVX2 enabled, so its 8-lane
    /// loops are single vector instructions.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn l2_squared_cols_avx2(
        query: &[f32],
        cols: &[f32],
        blocks: Option<u32>,
        out: &mut [f32],
    ) {
        super::l2_squared_cols_lanes(query, cols, blocks, out)
    }

    /// `l2_squared_cols_lanes` over every row, then `argmin_lanes`,
    /// compiled with AVX2 enabled: a vector compare, a min and a blend per
    /// 8 distances.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn l2_squared_cols_argmin_avx2(
        query: &[f32],
        cols: &[f32],
        out: &mut [f32],
    ) -> (usize, f32) {
        super::l2_squared_cols_lanes(query, cols, None, out);
        super::argmin_lanes(out)
    }

    /// `le_mask_lanes` over one full block, compiled with AVX2 enabled.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn le_mask_avx2(values: &[f32; super::SCAN_LANES], threshold: f32) -> u32 {
        super::le_mask_lanes(values, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_backend_matches_both_paths_bitwise() {
        // On AVX2 hardware this proves the vector compilation of the column
        // kernel; elsewhere it degenerates to scalar-vs-scalar, and the
        // proptest suite is the cross-machine evidence. 37 rows: one
        // 32-row block and a 5-row tail.
        let backend = detect();
        let rows = 37;
        for n in [1usize, 3, 4, 7, 8, 12, 15, 16, 33, 128, 131] {
            let query: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let table: Vec<f32> = (0..rows * n)
                .map(|i| (i as f32 * 0.11).cos() * 2.0 - 0.5)
                .collect();
            let cols = crate::distance::to_columns(&table, n);
            for b in [Backend::Scalar, backend] {
                let mut out = vec![0.0f32; rows];
                l2_squared_cols_with(b, &query, &cols, &mut out);
                for (r, row) in table.chunks_exact(n).enumerate() {
                    assert_eq!(
                        out[r].to_bits(),
                        l2_squared_scalar(&query, row).to_bits(),
                        "{b:?} dim {n} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn adc_scan_blocked_matches_reference_bitwise() {
        let m = 6;
        let table: Vec<f32> = (0..m * 256).map(|i| (i as f32 * 0.013).sin()).collect();
        // 21 records: two full 8-lane blocks plus a 5-record tail.
        let packed: Vec<u8> = (0..m * 21).map(|i| ((i * 37 + 11) % 256) as u8).collect();
        let mut reference = Vec::new();
        adc_scan_reference(&table, m, &packed, &mut reference);
        let mut got = Vec::new();
        adc_scan_blocked(&table, m, &packed, &mut got);
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn le_mask_matches_scalar_semantics() {
        let values = [1.0f32, 5.0, f32::NAN, 2.0, 2.0, -1.0, 9.0, 0.0];
        for backend in [Backend::Scalar, detect()] {
            let mask = le_mask_with(backend, &values, 2.0);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(mask & (1 << i) != 0, v <= 2.0, "{backend:?} lane {i}");
            }
        }
        // Short tails take the scalar path on every backend.
        assert_eq!(le_mask_with(detect(), &[1.0, 3.0, 2.0], 2.0), 0b101);
    }
}
