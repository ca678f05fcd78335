//! Parameter checkpointing.
//!
//! A minimal self-describing binary format (no external deps). Version 1
//! holds parameters only:
//!
//! ```text
//! magic  "NMCK"              4 bytes
//! version u32 LE             (1)
//! count   u32 LE
//! per parameter:
//!   name_len u32 LE, name bytes (UTF-8)
//!   rows u32 LE, cols u32 LE
//!   rows*cols f32 LE values
//! ```
//!
//! Version 2 appends named opaque **sections** (the trainer persists its
//! optimizer/RNG/early-stop state there) and an integrity checksum so a
//! flipped bit anywhere in the file is detected, not silently loaded:
//!
//! ```text
//! magic "NMCK", version u32 LE (2)
//! count u32 LE, parameters as in v1
//! n_sections u32 LE
//! per section: name_len u32 LE, name bytes, byte_len u64 LE, bytes
//! checksum u64 LE             (FNV-1a 64 of every preceding byte)
//! ```
//!
//! Loading matches parameters **by name** and fails loudly on any
//! missing name or shape mismatch — silent partial loads are how
//! checkpoint bugs hide. File writes go through [`atomic_write_bytes`]
//! (tmp + fsync + rename) so a crash mid-write leaves either the old or
//! the new file, never a torn hybrid.

use crate::Param;
use nm_tensor::Tensor;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"NMCK";
const VERSION: u32 = 1;
const VERSION_V2: u32 = 2;

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    /// Not a checkpoint file / wrong version.
    Format(String),
    /// Parameter present in the file but not in the model, or vice
    /// versa.
    NameMismatch(String),
    /// Shapes differ for a same-named parameter.
    ShapeMismatch {
        name: String,
        file: (usize, usize),
        model: (usize, usize),
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(m) => write!(f, "bad checkpoint format: {m}"),
            CheckpointError::NameMismatch(n) => write!(f, "parameter name mismatch: {n}"),
            CheckpointError::ShapeMismatch { name, file, model } => write!(
                f,
                "shape mismatch for '{name}': file {}x{}, model {}x{}",
                file.0, file.1, model.0, model.1
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes a `u32` little-endian (shared by the snapshot format in
/// `nm-serve`).
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Fills `buf`, turning a short read into a [`CheckpointError::Format`]
/// — a truncated file is a corrupt file, not an I/O failure.
fn read_exact_or_format<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::Format("truncated file".into())
        } else {
            CheckpointError::Io(e)
        }
    })
}

/// Reads a little-endian `u32` (shared by the snapshot format in
/// `nm-serve`). Truncation is a `Format` error.
pub fn read_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    read_exact_or_format(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes a `u64` little-endian.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `u64`. Truncation is a `Format` error.
pub fn read_u64<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    read_exact_or_format(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes an `f32` little-endian.
pub fn write_f32<W: Write>(w: &mut W, v: f32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `f32`. Truncation is a `Format` error.
pub fn read_f32<R: Read>(r: &mut R) -> Result<f32, CheckpointError> {
    let mut b = [0u8; 4];
    read_exact_or_format(r, &mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Writes an `f64` little-endian.
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `f64`. Truncation is a `Format` error.
pub fn read_f64<R: Read>(r: &mut R) -> Result<f64, CheckpointError> {
    let mut b = [0u8; 8];
    read_exact_or_format(r, &mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Writes a single byte.
pub fn write_u8<W: Write>(w: &mut W, v: u8) -> std::io::Result<()> {
    w.write_all(&[v])
}

/// Reads a single byte. Truncation is a `Format` error.
pub fn read_u8<R: Read>(r: &mut R) -> Result<u8, CheckpointError> {
    let mut b = [0u8; 1];
    read_exact_or_format(r, &mut b)?;
    Ok(b[0])
}

/// Writes a length-prefixed byte string (`u64` length + bytes).
pub fn write_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> std::io::Result<()> {
    write_u64(w, bytes.len() as u64)?;
    w.write_all(bytes)
}

/// Reads a length-prefixed byte string. Unreasonable lengths and
/// truncation are `Format` errors.
pub fn read_bytes<R: Read>(r: &mut R) -> Result<Vec<u8>, CheckpointError> {
    let len = read_u64(r)?;
    if len > 1 << 32 {
        return Err(CheckpointError::Format(format!(
            "unreasonable byte-string length {len}"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    read_exact_or_format(r, &mut buf)?;
    Ok(buf)
}

/// FNV-1a 64-bit hash — the v2 integrity checksum. Not cryptographic;
/// it exists to catch torn writes and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes a tensor as `rows u32, cols u32, rows*cols f32 LE`.
pub fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> Result<(), CheckpointError> {
    write_u32(w, t.rows() as u32)?;
    write_u32(w, t.cols() as u32)?;
    for x in t.data() {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a tensor written by [`write_tensor`]. Truncation is a
/// `Format` error.
pub fn read_tensor<R: Read>(r: &mut R) -> Result<Tensor, CheckpointError> {
    let rows = read_u32(r)? as usize;
    let cols = read_u32(r)? as usize;
    if rows.saturating_mul(cols) > 1 << 28 {
        return Err(CheckpointError::Format(format!(
            "unreasonable tensor shape {rows}x{cols}"
        )));
    }
    let mut data = vec![0f32; rows * cols];
    // One read call per block of values, not per value: the per-value
    // loop ran twice as slowly in one build as in another of nearly the
    // same code, depending only on where the linker placed it.
    let mut buf = [0u8; 4096];
    for block in data.chunks_mut(buf.len() / 4) {
        let bytes = &mut buf[..4 * block.len()];
        read_exact_or_format(r, bytes)?;
        for (x, b) in block.iter_mut().zip(bytes.chunks_exact(4)) {
            *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    Tensor::from_vec(rows, cols, data).map_err(|e| CheckpointError::Format(e.to_string()))
}

/// Serializes parameters to a writer.
pub fn save_params<W: Write>(params: &[&Param], w: &mut W) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, params.len() as u32)?;
    for p in params {
        let name = p.name().as_bytes();
        write_u32(w, name.len() as u32)?;
        w.write_all(name)?;
        let v = p.value();
        write_u32(w, v.rows() as u32)?;
        write_u32(w, v.cols() as u32)?;
        for x in v.data() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Atomically replaces `path` with `bytes`: writes a temporary sibling
/// file, fsyncs it, renames it over `path`, then fsyncs the directory.
/// A crash at any byte leaves either the old file or the new one —
/// never a torn hybrid. Stray `.tmp` files from a crashed writer are
/// ignored by loaders and overwritten by the next save.
pub fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| CheckpointError::Format(format!("bad target path {}", path.display())))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let written = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(CheckpointError::Io(e));
    }
    // Persist the rename itself; best-effort (some filesystems reject
    // directory fsync) — the data file is already durable.
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Saves parameters to a file path (atomic replace, v1 format).
pub fn save_to_file(params: &[&Param], path: &Path) -> Result<(), CheckpointError> {
    let mut buf = Vec::new();
    save_params(params, &mut buf)?;
    atomic_write_bytes(path, &buf)
}

/// A fully decoded checkpoint: named parameters plus (v2 only) named
/// opaque sections.
#[derive(Debug, Clone, Default)]
pub struct CheckpointData {
    pub params: Vec<(String, Tensor)>,
    pub sections: Vec<(String, Vec<u8>)>,
}

impl CheckpointData {
    /// The bytes of section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }
}

/// Serializes parameters plus named sections as a v2 checkpoint
/// (checksummed). The returned buffer is what [`atomic_write_bytes`]
/// should persist.
pub fn encode_v2(
    params: &[&Param],
    sections: &[(&str, &[u8])],
) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    write_u32(&mut buf, VERSION_V2)?;
    write_u32(&mut buf, params.len() as u32)?;
    for p in params {
        let name = p.name().as_bytes();
        write_u32(&mut buf, name.len() as u32)?;
        buf.extend_from_slice(name);
        write_tensor(&mut buf, &p.value())?;
    }
    write_u32(&mut buf, sections.len() as u32)?;
    for (name, bytes) in sections {
        let nb = name.as_bytes();
        write_u32(&mut buf, nb.len() as u32)?;
        buf.extend_from_slice(nb);
        write_bytes(&mut buf, bytes)?;
    }
    let sum = fnv1a64(&buf);
    write_u64(&mut buf, sum)?;
    Ok(buf)
}

fn read_name<R: Read>(r: &mut R) -> Result<String, CheckpointError> {
    let name_len = read_u32(r)? as usize;
    if name_len > 1 << 20 {
        return Err(CheckpointError::Format("unreasonable name length".into()));
    }
    let mut name = vec![0u8; name_len];
    read_exact_or_format(r, &mut name)?;
    String::from_utf8(name).map_err(|_| CheckpointError::Format("non-utf8 name".into()))
}

/// Decodes a checkpoint from a full in-memory buffer, accepting both
/// v1 (params only) and v2 (params + sections + checksum). For v2 the
/// checksum is verified **before** any structural parsing, so a flipped
/// bit anywhere in the file — header, tensor data, or section bytes —
/// is a `Format` error, never a silent wrong load.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointData, CheckpointError> {
    let mut r: &[u8] = bytes;
    let mut magic = [0u8; 4];
    read_exact_or_format(&mut r, &mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION && version != VERSION_V2 {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    if version == VERSION_V2 {
        let Some((body, trailer)) = bytes.split_last_chunk::<8>() else {
            return Err(CheckpointError::Format("truncated file".into()));
        };
        let stored = u64::from_le_bytes(*trailer);
        if fnv1a64(body) != stored {
            return Err(CheckpointError::Format(
                "checksum mismatch (torn write or corruption)".into(),
            ));
        }
        // Re-slice the reader past magic+version, excluding the trailer.
        r = body
            .get(8..)
            .ok_or_else(|| CheckpointError::Format("truncated file".into()))?;
    }
    let count = read_u32(&mut r)? as usize;
    let mut params = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let name = read_name(&mut r)?;
        params.push((name, read_tensor(&mut r)?));
    }
    let mut sections = Vec::new();
    if version == VERSION_V2 {
        let n_sections = read_u32(&mut r)? as usize;
        for _ in 0..n_sections {
            let name = read_name(&mut r)?;
            sections.push((name, read_bytes(&mut r)?));
        }
        if !r.is_empty() {
            return Err(CheckpointError::Format(format!(
                "{} trailing bytes after last section",
                r.len()
            )));
        }
    }
    Ok(CheckpointData { params, sections })
}

/// Reads a checkpoint into `(name, tensor)` pairs (v1 or v2; v2
/// sections are decoded and discarded).
pub fn read_checkpoint<R: Read>(r: &mut R) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    Ok(decode_checkpoint(&bytes)?.params)
}

/// Assigns decoded `(name, tensor)` entries onto a parameter set,
/// matching strictly by name. Every model parameter must be present and
/// every entry must match a parameter.
pub fn assign_params(
    params: &[&Param],
    entries: &[(String, Tensor)],
) -> Result<(), CheckpointError> {
    let mut by_name: std::collections::HashMap<&str, &Tensor> =
        entries.iter().map(|(n, t)| (n.as_str(), t)).collect();
    for p in params {
        let t = by_name
            .remove(p.name())
            .ok_or_else(|| CheckpointError::NameMismatch(format!("'{}' not in file", p.name())))?;
        if t.shape() != p.shape() {
            return Err(CheckpointError::ShapeMismatch {
                name: p.name().to_string(),
                file: t.shape(),
                model: p.shape(),
            });
        }
        p.set_value(t.clone());
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(CheckpointError::NameMismatch(format!(
            "'{extra}' in file but not in model"
        )));
    }
    Ok(())
}

/// Loads a checkpoint into a parameter set, matching strictly by name.
/// Every model parameter must be present in the file and every file
/// entry must match a parameter.
pub fn load_params<R: Read>(params: &[&Param], r: &mut R) -> Result<(), CheckpointError> {
    let entries = read_checkpoint(r)?;
    assign_params(params, &entries)
}

/// Loads from a file path.
pub fn load_from_file(params: &[&Param], path: &Path) -> Result<(), CheckpointError> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    load_params(params, &mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_tensor::TensorRng;

    fn params() -> Vec<Param> {
        let mut rng = TensorRng::seed_from(5);
        vec![
            Param::new("layer.w", Tensor::randn(3, 4, 1.0, &mut rng)),
            Param::new("layer.b", Tensor::randn(1, 4, 1.0, &mut rng)),
            Param::new("emb", Tensor::randn(10, 4, 1.0, &mut rng)),
        ]
    }

    #[test]
    fn roundtrip_restores_values() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let mut buf = Vec::new();
        save_params(&refs, &mut buf).unwrap();

        let dst = params();
        // perturb destination so the load is observable
        for p in &dst {
            p.update(|v, _| v.scale_assign(0.0));
        }
        let drefs: Vec<&Param> = dst.iter().collect();
        load_params(&drefs, &mut buf.as_slice()).unwrap();
        for (a, b) in src.iter().zip(&dst) {
            assert_eq!(a.value(), b.value(), "param {}", a.name());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let data = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00";
        let err = read_checkpoint(&mut data.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn missing_param_rejected() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let mut buf = Vec::new();
        save_params(&refs[..2], &mut buf).unwrap();
        let drefs: Vec<&Param> = src.iter().collect();
        let err = load_params(&drefs, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::NameMismatch(_)));
    }

    #[test]
    fn extra_file_entry_rejected() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let mut buf = Vec::new();
        save_params(&refs, &mut buf).unwrap();
        let dst = params();
        let drefs: Vec<&Param> = dst.iter().take(2).collect();
        let err = load_params(&drefs, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::NameMismatch(_)));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let mut buf = Vec::new();
        save_params(&refs, &mut buf).unwrap();
        let mut rng = TensorRng::seed_from(9);
        let dst = [
            Param::new("layer.w", Tensor::randn(4, 3, 1.0, &mut rng)), // transposed shape
            Param::new("layer.b", Tensor::randn(1, 4, 1.0, &mut rng)),
            Param::new("emb", Tensor::randn(10, 4, 1.0, &mut rng)),
        ];
        let drefs: Vec<&Param> = dst.iter().collect();
        let err = load_params(&drefs, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }));
    }

    #[test]
    fn truncated_checkpoint_is_format_error_at_every_length() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let mut buf = Vec::new();
        save_params(&refs, &mut buf).unwrap();
        // Every strict prefix must fail with Format, never Io or panic.
        for cut in [0, 2, 4, 7, 8, 11, 12, 20, buf.len() / 2, buf.len() - 1] {
            let err = read_checkpoint(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format(_)),
                "cut at {cut}: got {err}"
            );
        }
    }

    #[test]
    fn tensor_helper_roundtrip_and_truncation() {
        let mut rng = TensorRng::seed_from(13);
        let t = Tensor::randn(5, 3, 1.0, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        assert_eq!(read_tensor(&mut buf.as_slice()).unwrap(), t);
        let err = read_tensor(&mut &buf[..buf.len() - 2]).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn v2_roundtrip_restores_params_and_sections() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let sec_a = vec![1u8, 2, 3, 4, 5];
        let sec_b = b"trainer state bytes".to_vec();
        let buf = encode_v2(&refs, &[("alpha", &sec_a), ("trainer", &sec_b)]).unwrap();

        let data = decode_checkpoint(&buf).unwrap();
        assert_eq!(data.params.len(), 3);
        assert_eq!(data.section("alpha"), Some(sec_a.as_slice()));
        assert_eq!(data.section("trainer"), Some(sec_b.as_slice()));
        assert_eq!(data.section("nope"), None);

        let dst = params();
        for p in &dst {
            p.update(|v, _| v.scale_assign(0.0));
        }
        let drefs: Vec<&Param> = dst.iter().collect();
        assign_params(&drefs, &data.params).unwrap();
        for (a, b) in src.iter().zip(&dst) {
            assert_eq!(a.value(), b.value(), "param {}", a.name());
        }

        // v2 files load through the v1-era entry points too.
        load_params(&drefs, &mut buf.as_slice()).unwrap();
    }

    #[test]
    fn v2_truncation_is_format_error_at_every_length() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let sec = vec![9u8; 33];
        let buf = encode_v2(&refs, &[("trainer", &sec)]).unwrap();
        for cut in 0..buf.len() {
            let err = decode_checkpoint(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format(_)),
                "cut at {cut}: got {err}"
            );
        }
    }

    #[test]
    fn v2_bitflip_anywhere_is_format_error() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let sec = vec![7u8; 19];
        let buf = encode_v2(&refs, &[("trainer", &sec)]).unwrap();
        // Flip a single bit at every byte position — header, parameter
        // names, tensor payloads, section bytes, and the checksum
        // trailer itself must all be caught.
        for i in 0..buf.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = buf.clone();
                bad[i] ^= bit;
                let err = decode_checkpoint(&bad).unwrap_err();
                assert!(
                    matches!(err, CheckpointError::Format(_)),
                    "flip at byte {i} bit {bit:#x}: got {err}"
                );
            }
        }
    }

    #[test]
    fn v2_trailing_garbage_rejected() {
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        let mut buf = encode_v2(&refs, &[]).unwrap();
        buf.push(0);
        let err = decode_checkpoint(&buf).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("nmcdr_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.nmck");
        atomic_write_bytes(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write_bytes(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // no stray tmp files survive a successful write
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "stray tmp files: {strays:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_failure_leaves_old_file_intact() {
        let dir = std::env::temp_dir().join(format!("nmcdr_atomic_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.nmck");
        atomic_write_bytes(&path, b"good").unwrap();
        // Writing over the same path via a *sub*directory that doesn't
        // exist fails; the original must be untouched.
        let bad = dir.join("missing_subdir").join("state.nmck");
        assert!(atomic_write_bytes(&bad, b"never").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"good");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nmcdr_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.nmck");
        let src = params();
        let refs: Vec<&Param> = src.iter().collect();
        save_to_file(&refs, &path).unwrap();
        let dst = params();
        for p in &dst {
            p.update(|v, _| v.scale_assign(0.0));
        }
        let drefs: Vec<&Param> = dst.iter().collect();
        load_from_file(&drefs, &path).unwrap();
        assert_eq!(src[2].value(), dst[2].value());
        std::fs::remove_dir_all(&dir).ok();
    }
}
