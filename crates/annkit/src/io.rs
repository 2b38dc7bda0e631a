//! Reading and writing the `fvecs` / `bvecs` / `ivecs` dataset formats.
//!
//! The public billion-scale ANNS datasets (SIFT1B, DEEP1B, SPACEV1B ground
//! truth, etc.) ship in these simple framed formats: each vector is stored as
//! a little-endian `u32` dimension followed by `dim` components (`f32` for
//! fvecs, `u8` for bvecs, `i32` for ivecs). Supporting them means a user with
//! the real datasets can feed them straight into this reproduction.

use crate::error::AnnError;
use crate::vector::Dataset;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads an `fvecs` file into a [`Dataset`].
pub fn read_fvecs(path: impl AsRef<Path>) -> Result<Dataset, AnnError> {
    let file = File::open(path)?;
    read_fvecs_from(BufReader::new(file))
}

/// Reads `fvecs`-framed vectors from any reader.
///
/// A NaN or infinite component is [`AnnError::MalformedFile`]: no distance,
/// k-means step or PQ code means anything for it.
pub fn read_fvecs_from(mut reader: impl Read) -> Result<Dataset, AnnError> {
    let mut dataset: Option<Dataset> = None;
    while let Some(d) = read_u32(&mut reader)? {
        let dim = d as usize;
        validate_dim(dim, &dataset)?;
        let mut buf = vec![0u8; dim * 4];
        reader.read_exact(&mut buf).map_err(truncated)?;
        let row: Vec<f32> = buf
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        if let Some(x) = row.iter().find(|x| !x.is_finite()) {
            return Err(AnnError::MalformedFile {
                reason: format!(
                    "row {} has a non-finite component ({x})",
                    dataset.as_ref().map_or(0, Dataset::len)
                ),
            });
        }
        dataset.get_or_insert_with(|| Dataset::new(dim)).push(&row);
    }
    dataset.ok_or_else(|| AnnError::MalformedFile {
        reason: "file contains no vectors".into(),
    })
}

/// Reads a `bvecs` file (byte components) into a [`Dataset`] of `f32`.
pub fn read_bvecs(path: impl AsRef<Path>) -> Result<Dataset, AnnError> {
    let file = File::open(path)?;
    read_bvecs_from(BufReader::new(file))
}

/// Reads `bvecs`-framed vectors from any reader.
pub fn read_bvecs_from(mut reader: impl Read) -> Result<Dataset, AnnError> {
    let mut dataset: Option<Dataset> = None;
    while let Some(d) = read_u32(&mut reader)? {
        let dim = d as usize;
        validate_dim(dim, &dataset)?;
        let mut buf = vec![0u8; dim];
        reader.read_exact(&mut buf).map_err(truncated)?;
        let row: Vec<f32> = buf.iter().map(|&b| b as f32).collect();
        dataset.get_or_insert_with(|| Dataset::new(dim)).push(&row);
    }
    dataset.ok_or_else(|| AnnError::MalformedFile {
        reason: "file contains no vectors".into(),
    })
}

/// Reads an `ivecs` file (e.g. ground-truth neighbor ids) as a list of rows.
pub fn read_ivecs(path: impl AsRef<Path>) -> Result<Vec<Vec<u32>>, AnnError> {
    let file = File::open(path)?;
    read_ivecs_from(BufReader::new(file))
}

/// Reads `ivecs`-framed rows from any reader.
pub fn read_ivecs_from(mut reader: impl Read) -> Result<Vec<Vec<u32>>, AnnError> {
    let mut rows = Vec::new();
    while let Some(d) = read_u32(&mut reader)? {
        let dim = d as usize;
        if dim == 0 || dim > 1 << 24 {
            return Err(AnnError::MalformedFile {
                reason: format!("implausible row length {dim}"),
            });
        }
        let mut buf = vec![0u8; dim * 4];
        reader.read_exact(&mut buf).map_err(truncated)?;
        rows.push(
            buf.chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
        );
    }
    Ok(rows)
}

/// Writes a [`Dataset`] in `fvecs` format.
pub fn write_fvecs(path: impl AsRef<Path>, data: &Dataset) -> Result<(), AnnError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for v in data.iter() {
        w.write_all(&(data.dim() as u32).to_le_bytes())?;
        for &x in v {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes ground-truth id rows in `ivecs` format.
pub fn write_ivecs(path: impl AsRef<Path>, rows: &[Vec<u32>]) -> Result<(), AnnError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for row in rows {
        w.write_all(&(row.len() as u32).to_le_bytes())?;
        for &x in row {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

fn read_u32(reader: &mut impl Read) -> Result<Option<u32>, AnnError> {
    let mut buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between records
            }
            return Err(AnnError::MalformedFile {
                reason: "truncated record header".into(),
            });
        }
        filled += n;
    }
    Ok(Some(u32::from_le_bytes(buf)))
}

fn validate_dim(dim: usize, dataset: &Option<Dataset>) -> Result<(), AnnError> {
    if dim == 0 || dim > 1 << 20 {
        return Err(AnnError::MalformedFile {
            reason: format!("implausible vector dimension {dim}"),
        });
    }
    if let Some(ds) = dataset {
        if ds.dim() != dim {
            return Err(AnnError::MalformedFile {
                reason: format!("inconsistent dimensions: {} then {}", ds.dim(), dim),
            });
        }
    }
    Ok(())
}

fn truncated(_: std::io::Error) -> AnnError {
    AnnError::MalformedFile {
        reason: "truncated vector payload".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fvecs_bytes(rows: &[Vec<f32>]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in rows {
            out.extend_from_slice(&(r.len() as u32).to_le_bytes());
            for &x in r {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn fvecs_roundtrip_in_memory() {
        let rows = vec![vec![1.0f32, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let bytes = fvecs_bytes(&rows);
        let ds = read_fvecs_from(&bytes[..]).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.vector(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn fvecs_file_roundtrip() {
        let dir = std::env::temp_dir().join("annkit_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.fvecs");
        let ds = Dataset::from_rows(&[vec![0.5f32, -1.5], vec![3.25, 4.75]]);
        write_fvecs(&path, &ds).unwrap();
        let back = read_fvecs(&path).unwrap();
        assert_eq!(back, ds);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bvecs_parses_bytes() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[10u8, 20, 30, 255]);
        let ds = read_bvecs_from(&bytes[..]).unwrap();
        assert_eq!(ds.dim(), 4);
        assert_eq!(ds.vector(0), &[10.0, 20.0, 30.0, 255.0]);
    }

    #[test]
    fn ivecs_roundtrip() {
        let dir = std::env::temp_dir().join("annkit_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gt.ivecs");
        let rows = vec![vec![1u32, 2, 3], vec![9, 8, 7]];
        write_ivecs(&path, &rows).unwrap();
        let back = read_ivecs(&path).unwrap();
        assert_eq!(back, rows);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_payload() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes()); // only 1 of 3 floats
        let err = read_fvecs_from(&bytes[..]).unwrap_err();
        assert!(matches!(err, AnnError::MalformedFile { .. }));
    }

    #[test]
    fn rejects_inconsistent_dims() {
        let rows = vec![vec![1.0f32, 2.0], vec![1.0, 2.0, 3.0]];
        let bytes = fvecs_bytes(&rows);
        let err = read_fvecs_from(&bytes[..]).unwrap_err();
        assert!(matches!(err, AnnError::MalformedFile { .. }));
    }

    #[test]
    fn empty_file_is_an_error_for_vectors() {
        let err = read_fvecs_from(&[][..]).unwrap_err();
        assert!(matches!(err, AnnError::MalformedFile { .. }));
        // But an empty ivecs ground-truth file is just an empty list.
        assert!(read_ivecs_from(&[][..]).unwrap().is_empty());
    }
}
