//! Checksummed named-tensor blobs — the binary payload of a checkpoint.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "STWB" | u32 format | u64 tensor_count |
//!   per tensor: u64 name_len | name utf8 |
//!               u64 rank     | u64 dims[rank] |
//!               u64 data_bytes | f32 data[...] |
//!               u64 checksum   (FNV-1a over name, dims, and data bytes)
//! ```
//!
//! Two integrity layers: the manifest stores a byte count and an FNV-1a
//! checksum over the *whole file* (catches truncation and bit flips in
//! one comparison), and every tensor record carries its own checksum
//! (localizes the damage and survives manifest-less inspection).

use crate::{io_err, CkptError};
use std::path::Path;

/// Blob format version written by this build.
pub const BLOB_FORMAT: u32 = 1;

const MAGIC: &[u8; 4] = b"STWB";
/// Ranks above this are structurally implausible for this workspace and
/// treated as corruption rather than allocated.
const MAX_RANK: usize = 8;

/// One tensor with its registration name — the unit the checkpoint
/// layer moves between [`stwa_nn::ParamStore`]s and disk.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTensor {
    pub name: String,
    pub shape: Vec<usize>,
    pub data: Vec<f32>,
}

impl NamedTensor {
    /// Number of scalar elements implied by the shape.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a 64-bit over `bytes` — the content checksum used throughout
/// the checkpoint layer. Not cryptographic; it detects truncation and
/// random corruption (a single flipped bit always changes the sum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Per-tensor checksum: name bytes, then dims as LE u64s, then raw data
/// bytes, so renames and reshapes are detected, not just value edits.
fn tensor_checksum(t: &NamedTensor) -> u64 {
    let mut buf = Vec::with_capacity(t.name.len() + t.shape.len() * 8 + t.data.len() * 4);
    buf.extend_from_slice(t.name.as_bytes());
    for &d in &t.shape {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in &t.data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&buf)
}

/// Serialize `tensors` into the blob byte format.
pub fn encode(tensors: &[NamedTensor]) -> Vec<u8> {
    let payload: usize = tensors
        .iter()
        .map(|t| 8 + t.name.len() + 8 + t.shape.len() * 8 + 8 + t.data.len() * 4 + 8)
        .sum();
    let mut out = Vec::with_capacity(4 + 4 + 8 + payload);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&BLOB_FORMAT.to_le_bytes());
    out.extend_from_slice(&(tensors.len() as u64).to_le_bytes());
    for t in tensors {
        out.extend_from_slice(&(t.name.len() as u64).to_le_bytes());
        out.extend_from_slice(t.name.as_bytes());
        out.extend_from_slice(&(t.shape.len() as u64).to_le_bytes());
        for &d in &t.shape {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(&((t.data.len() * 4) as u64).to_le_bytes());
        for &v in &t.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&tensor_checksum(t).to_le_bytes());
    }
    out
}

/// Bounds-checked cursor over an in-memory blob; every read that would
/// run off the end becomes a typed `Truncated` error.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        // `at <= len` always holds, so this cannot overflow the way
        // `at + n` can for a corrupt length.
        if n > self.bytes.len() - self.at {
            return Err(CkptError::Truncated {
                path: self.path.to_path_buf(),
                detail: format!(
                    "need {n} bytes at offset {}, file has {}",
                    self.at,
                    self.bytes.len()
                ),
            });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Parse a blob from raw bytes, validating structure and every
/// per-tensor checksum. `path` is only used for error messages.
pub fn decode(path: &Path, bytes: &[u8]) -> Result<Vec<NamedTensor>, CkptError> {
    let mut cur = Cursor { bytes, at: 0, path };
    let format_err = |detail: String| CkptError::Format {
        path: path.to_path_buf(),
        detail,
    };
    if cur.take(4)? != MAGIC {
        return Err(format_err("bad blob magic (expected 'STWB')".into()));
    }
    let format = cur.u32()?;
    if format != BLOB_FORMAT {
        return Err(CkptError::VersionSkew {
            path: path.to_path_buf(),
            found: format,
            supported: BLOB_FORMAT,
        });
    }
    let count = cur.u64()? as usize;
    // A count that cannot possibly fit in the remaining bytes is
    // corruption; refuse before reserving anything.
    if count > bytes.len() {
        return Err(format_err(format!("implausible tensor count {count}")));
    }
    let mut tensors = Vec::with_capacity(count);
    for i in 0..count {
        let name_len = cur.u64()? as usize;
        if name_len > bytes.len() {
            return Err(format_err(format!("tensor {i}: implausible name length {name_len}")));
        }
        let name = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|_| format_err(format!("tensor {i}: non-utf8 name")))?;
        let rank = cur.u64()? as usize;
        if rank > MAX_RANK {
            return Err(format_err(format!("tensor '{name}': implausible rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(cur.u64()? as usize);
        }
        let data_bytes = cur.u64()? as usize;
        // Corrupt dims can overflow the byte count; that is a format
        // error, not an arithmetic panic.
        let implied = shape
            .iter()
            .try_fold(4usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| format_err(format!("tensor '{name}': shape {shape:?} overflows")))?;
        if data_bytes != implied {
            return Err(format_err(format!(
                "tensor '{name}': shape {shape:?} implies {implied} data bytes, \
                 record says {data_bytes}"
            )));
        }
        let raw = cur.take(data_bytes)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        let stored = cur.u64()?;
        let tensor = NamedTensor { name, shape, data };
        let actual = tensor_checksum(&tensor);
        if stored != actual {
            return Err(CkptError::ChecksumMismatch {
                path: path.to_path_buf(),
                tensor: Some(tensor.name),
                expected: stored,
                actual,
            });
        }
        tensors.push(tensor);
    }
    if cur.at != bytes.len() {
        return Err(format_err(format!(
            "{} trailing bytes after the last tensor record",
            bytes.len() - cur.at
        )));
    }
    Ok(tensors)
}

/// Write `tensors` to `path` and return `(bytes, checksum)` — the
/// manifest entry for the file.
pub fn write_file(path: &Path, tensors: &[NamedTensor]) -> Result<(u64, u64), CkptError> {
    let bytes = encode(tensors);
    std::fs::write(path, &bytes).map_err(|e| io_err(path, e))?;
    stwa_observe::counter!("ckpt.bytes_written").add(bytes.len() as u64);
    Ok((bytes.len() as u64, fnv1a64(&bytes)))
}

/// Read and fully verify a blob file: the manifest's recorded byte
/// count and file checksum first (truncation / bit flips), then the
/// per-tensor records.
pub fn read_file(
    path: &Path,
    expected_bytes: u64,
    expected_checksum: u64,
) -> Result<Vec<NamedTensor>, CkptError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CkptError::MissingBlob(path.to_path_buf()))
        }
        Err(e) => return Err(io_err(path, e)),
    };
    if bytes.len() as u64 != expected_bytes {
        return Err(CkptError::Truncated {
            path: path.to_path_buf(),
            detail: format!(
                "manifest records {expected_bytes} bytes, file has {}",
                bytes.len()
            ),
        });
    }
    let actual = fnv1a64(&bytes);
    if actual != expected_checksum {
        return Err(CkptError::ChecksumMismatch {
            path: path.to_path_buf(),
            tensor: None,
            expected: expected_checksum,
            actual,
        });
    }
    stwa_observe::counter!("ckpt.bytes_read").add(bytes.len() as u64);
    decode(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<NamedTensor> {
        vec![
            NamedTensor {
                name: "layer.w".into(),
                shape: vec![2, 3],
                data: vec![1.0, -2.5, 3.25, 0.0, f32::MIN_POSITIVE, -0.0],
            },
            NamedTensor {
                name: "layer.b".into(),
                shape: vec![3],
                data: vec![0.5, 1.5, -9.75],
            },
        ]
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let tensors = sample();
        let bytes = encode(&tensors);
        let back = decode(Path::new("mem"), &bytes).unwrap();
        assert_eq!(back.len(), tensors.len());
        for (a, b) in tensors.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.shape, b.shape);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn bad_magic_is_format_error() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert!(matches!(
            decode(Path::new("mem"), &bytes),
            Err(CkptError::Format { .. })
        ));
    }

    #[test]
    fn unknown_format_is_version_skew() {
        let mut bytes = encode(&sample());
        bytes[4] = 0xEE;
        assert!(matches!(
            decode(Path::new("mem"), &bytes),
            Err(CkptError::VersionSkew { .. })
        ));
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let res = decode(Path::new("mem"), &bytes[..cut]);
            assert!(
                matches!(
                    res,
                    Err(CkptError::Truncated { .. })
                        | Err(CkptError::Format { .. })
                        | Err(CkptError::ChecksumMismatch { .. })
                ),
                "cut at {cut} must fail with a typed error"
            );
        }
    }

    #[test]
    fn flipped_data_bit_fails_tensor_checksum() {
        let bytes = encode(&sample());
        // Flip one bit somewhere in the middle (inside tensor data).
        let mut bad = bytes.clone();
        let at = bytes.len() / 2;
        bad[at] ^= 0x10;
        let res = decode(Path::new("mem"), &bad);
        assert!(res.is_err(), "corruption must not decode");
    }

    #[test]
    fn huge_dims_and_lengths_are_typed_not_overflows() {
        // One record whose dims multiply past usize::MAX, and one whose
        // dims and byte count agree on a length so close to usize::MAX
        // that `offset + length` would wrap.
        let near_max = (1u64 << 62) - 1;
        for (dims, data_bytes) in [([1u64 << 62, 8], 0u64), ([near_max, 1], near_max * 4)] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&BLOB_FORMAT.to_le_bytes());
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.push(b'w');
            bytes.extend_from_slice(&2u64.to_le_bytes());
            for d in dims {
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            bytes.extend_from_slice(&data_bytes.to_le_bytes());
            assert!(matches!(
                decode(Path::new("mem"), &bytes),
                Err(CkptError::Format { .. }) | Err(CkptError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&sample());
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            decode(Path::new("mem"), &bytes),
            Err(CkptError::Format { .. })
        ));
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = fnv1a64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(base, fnv1a64(&flipped));
            }
        }
    }
}
