//! The `fvecs` / `bvecs` / `ivecs` readers under hostile input: whatever
//! bytes arrive, each reader returns exactly the rows that were written or
//! `Err(MalformedFile | Io)` — never a panic, never a partial row, never a
//! NaN handed on to k-means.

use annkit::error::AnnError;
use annkit::io::{read_bvecs_from, read_fvecs_from, read_ivecs_from};
use annkit::vector::Dataset;
use proptest::prelude::*;

fn fvecs(rows: &[Vec<f32>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        for x in r {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

fn bvecs(rows: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(r);
    }
    out
}

fn ivecs(rows: &[Vec<u32>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        for x in r {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

fn dataset_rows(ds: &Dataset) -> Vec<Vec<f32>> {
    ds.iter().map(<[f32]>::to_vec).collect()
}

fn assert_rejected<T: std::fmt::Debug>(result: Result<T, AnnError>, what: &str) {
    match result {
        Err(AnnError::MalformedFile { .. } | AnnError::Io(_)) => {}
        other => panic!("{what}: expected MalformedFile or Io, got {other:?}"),
    }
}

/// `flat` cut into `dim`-wide rows (the last one dropped if short).
fn rows_of<T: Clone>(flat: &[T], dim: usize) -> Vec<Vec<T>> {
    flat.chunks_exact(dim).map(<[T]>::to_vec).collect()
}

/// Byte offsets at which a stream of `rows` rows of `dim` elements of
/// `elem` bytes each has just finished a record.
fn record_ends(rows: usize, dim: usize, elem: usize) -> Vec<usize> {
    (0..=rows).map(|r| r * (4 + dim * elem)).collect()
}

/// Reads `bytes` with all three readers: each either accepts a stream that
/// re-encodes to exactly `bytes` or rejects it.
fn assert_exact_or_rejected(bytes: &[u8]) {
    match read_fvecs_from(bytes) {
        Ok(ds) => assert_eq!(
            fvecs(&dataset_rows(&ds)),
            bytes,
            "fvecs accepted other rows"
        ),
        other => assert_rejected(other, "fvecs"),
    }
    match read_bvecs_from(bytes) {
        Ok(ds) => {
            let rows: Vec<Vec<u8>> = dataset_rows(&ds)
                .iter()
                .map(|r| r.iter().map(|&x| x as u8).collect())
                .collect();
            assert_eq!(bvecs(&rows), bytes, "bvecs accepted other rows");
        }
        other => assert_rejected(other, "bvecs"),
    }
    match read_ivecs_from(bytes) {
        Ok(rows) => assert_eq!(ivecs(&rows), bytes, "ivecs accepted other rows"),
        other => assert_rejected(other, "ivecs"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, whose first header is almost always implausible.
    #[test]
    fn random_bytes_are_read_exactly_or_rejected(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        assert_exact_or_rejected(&bytes);
    }

    /// Arbitrary bytes behind a small, plausible header, so the payload path
    /// (truncation, the next header, non-finite floats) is what gets fuzzed.
    #[test]
    fn random_payloads_are_read_exactly_or_rejected(
        dim in 1u32..6,
        payload in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let mut bytes = dim.to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        assert_exact_or_rejected(&bytes);
    }

    /// A valid stream cut at every offset: a cut on a record boundary reads
    /// back exactly the rows before it, any other cut is rejected.
    #[test]
    fn valid_streams_cut_anywhere_read_a_prefix_or_are_rejected(
        dim in 1usize..8,
        floats in prop::collection::vec(-1e6f32..1e6, 1..48),
        bytes_in in prop::collection::vec(0u8..=255, 1..48),
        ids in prop::collection::vec(0u32..4_000_000_000, 1..48),
    ) {
        let frows = rows_of(&floats, dim);
        let brows = rows_of(&bytes_in, dim);
        let irows = rows_of(&ids, dim);

        let stream = fvecs(&frows);
        let ends = record_ends(frows.len(), dim, 4);
        for cut in 0..=stream.len() {
            let read = read_fvecs_from(&stream[..cut]);
            match ends.iter().position(|&e| e == cut) {
                Some(r) if r > 0 => prop_assert_eq!(dataset_rows(&read.unwrap()), frows[..r].to_vec()),
                _ => assert_rejected(read, "cut fvecs"),
            }
        }

        let stream = bvecs(&brows);
        let ends = record_ends(brows.len(), dim, 1);
        for cut in 0..=stream.len() {
            let read = read_bvecs_from(&stream[..cut]);
            match ends.iter().position(|&e| e == cut) {
                Some(r) if r > 0 => {
                    let expected: Vec<Vec<f32>> = brows[..r]
                        .iter()
                        .map(|row| row.iter().map(|&b| b as f32).collect())
                        .collect();
                    prop_assert_eq!(dataset_rows(&read.unwrap()), expected);
                }
                _ => assert_rejected(read, "cut bvecs"),
            }
        }

        // An empty ground-truth file is an empty list, not an error.
        let stream = ivecs(&irows);
        let ends = record_ends(irows.len(), dim, 4);
        for cut in 0..=stream.len() {
            let read = read_ivecs_from(&stream[..cut]);
            match ends.iter().position(|&e| e == cut) {
                Some(r) => prop_assert_eq!(read.unwrap(), irows[..r].to_vec()),
                None => assert_rejected(read, "cut ivecs"),
            }
        }
    }

    /// One NaN or ±∞ anywhere in an otherwise valid fvecs stream rejects
    /// the file, and the error names the row it is in.
    #[test]
    fn non_finite_fvecs_components_are_rejected_by_row(
        dim in 1usize..8,
        floats in prop::collection::vec(-1e6f32..1e6, 8..48),
        at in 0usize..48,
        which in 0usize..3,
    ) {
        let mut rows = rows_of(&floats, dim);
        let flat = rows.len() * dim;
        let (row, col) = ((at % flat) / dim, (at % flat) % dim);
        rows[row][col] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][which];
        match read_fvecs_from(&fvecs(&rows)[..]) {
            Err(AnnError::MalformedFile { reason }) => {
                prop_assert!(reason.contains(&format!("row {row} ")), "{reason}");
            }
            other => panic!("non-finite component accepted: {other:?}"),
        }
    }
}

/// Headers of 0, 2²⁰ + 1 and `u32::MAX`, each followed by a little payload.
#[test]
fn implausible_headers_are_rejected() {
    for header in [0u32, (1 << 20) + 1, u32::MAX] {
        let mut bytes = header.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_rejected(read_fvecs_from(&bytes[..]), "fvecs header");
        assert_rejected(read_bvecs_from(&bytes[..]), "bvecs header");
        assert_rejected(read_ivecs_from(&bytes[..]), "ivecs header");
    }
}

/// Vector files must keep one dimension; ground-truth rows may differ in
/// length and read back exactly as written.
#[test]
fn inconsistent_dimensions() {
    let floats = vec![vec![1.0f32, 2.0], vec![3.0, 4.0, 5.0]];
    assert_rejected(read_fvecs_from(&fvecs(&floats)[..]), "fvecs dims");
    let bytes = vec![vec![1u8, 2, 3], vec![4, 5]];
    assert_rejected(read_bvecs_from(&bvecs(&bytes)[..]), "bvecs dims");
    let ids = vec![vec![1u32, 2], vec![3, 4, 5], vec![6]];
    assert_eq!(read_ivecs_from(&ivecs(&ids)[..]).unwrap(), ids);
}
