//! Binary CSR graph I/O.
//!
//! The paper stores datasets in the Galois CSR binary format for fast
//! loading; we define an equivalent little-endian container:
//!
//! ```text
//! magic   "ETAG"            4 bytes
//! version u32               currently 1
//! flags   u32               bit 0: weighted
//! n       u64               vertices
//! m       u64               edges
//! row_offsets  (n+1) × u32
//! col_idx       m    × u32
//! weights       m    × u32  (iff weighted)
//! ```

use crate::csr::{Csr, MAX_VERTICES};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"ETAG";
const VERSION: u32 = 1;
const FLAG_WEIGHTED: u32 = 1;

/// Serializes a CSR graph to a writer.
pub fn write_csr<W: Write>(g: &Csr, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let flags = if g.is_weighted() { FLAG_WEIGHTED } else { 0 };
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(g.n() as u64).to_le_bytes())?;
    w.write_all(&(g.m() as u64).to_le_bytes())?;
    write_u32s(w, &g.row_offsets)?;
    write_u32s(w, &g.col_idx)?;
    if let Some(weights) = &g.weights {
        write_u32s(w, weights)?;
    }
    Ok(())
}

/// Deserializes a CSR graph from a reader, validating structure.
pub fn read_csr<R: Read>(r: &mut R) -> io::Result<Csr> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("bad magic"));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(invalid("unsupported version"));
    }
    let flags = read_u32(r)?;
    let n = read_u64(r)? as usize;
    let m = read_u64(r)? as usize;
    if n >= u32::MAX as usize || m >= u32::MAX as usize {
        return Err(invalid("graph too large for u32 indices"));
    }
    let row_offsets = read_u32s(r, n + 1)?;
    let col_idx = read_u32s(r, m)?;
    let weights = if flags & FLAG_WEIGHTED != 0 {
        Some(read_u32s(r, m)?)
    } else {
        None
    };
    let g = Csr {
        row_offsets,
        col_idx,
        weights,
    };
    g.validate().map_err(invalid)?;
    Ok(g)
}

/// Writes a graph to a file path (buffered).
pub fn save<P: AsRef<Path>>(g: &Csr, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_csr(g, &mut w)?;
    w.flush()
}

/// Loads a graph from a file path (buffered).
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    read_csr(&mut r)
}

/// Parses a whitespace-separated edge-list text (`src dst [weight]` per
/// line, `#`-prefixed comments allowed) — the "human-readable edge lists
/// format" the paper sizes its datasets in.
///
/// Strict: every malformed line is a line-numbered error — vertex ids that
/// overflow `u32`, endpoints outside a declared `n_hint`, trailing garbage
/// after the weight, and lines that switch between the weighted and
/// unweighted arity mid-file (a weight silently defaulting to 1 on *some*
/// edges is a corrupt dataset, not a convenience).
pub fn parse_edge_list(text: &str, n_hint: Option<usize>) -> Result<Csr, String> {
    if let Some(n) = n_hint.filter(|&n| n > MAX_VERTICES) {
        return Err(format!(
            "graph declared {n} vertices, but a CSR holds at most {MAX_VERTICES}"
        ));
    }
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut weighted: Option<bool> = None;
    let mut max_v = 0u32;
    let parse_vertex = |tok: &str, what: &str, lineno: usize| -> Result<u32, String> {
        let v: u32 = tok
            .parse()
            .map_err(|_| format!("line {}: {what} vertex id {tok:?} is not a u32", lineno + 1))?;
        match n_hint {
            Some(n) if v as usize >= n => Err(format!(
                "line {}: {what} vertex {v} out of range (graph declared {n} vertices)",
                lineno + 1
            )),
            // Without a declared count the graph gets ids 0..=max id.
            None if v as usize >= MAX_VERTICES => Err(format!(
                "line {}: {what} vertex id {v} is too large (a CSR holds at most \
                 {MAX_VERTICES} vertices)",
                lineno + 1
            )),
            _ => Ok(v),
        }
    };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let s = parse_vertex(
            it.next()
                .ok_or_else(|| format!("line {}: missing src", lineno + 1))?,
            "src",
            lineno,
        )?;
        let d = parse_vertex(
            it.next()
                .ok_or_else(|| format!("line {}: missing dst", lineno + 1))?,
            "dst",
            lineno,
        )?;
        let w = match it.next() {
            Some(tok) => {
                if weighted == Some(false) {
                    return Err(format!(
                        "line {}: weighted edge in an unweighted list",
                        lineno + 1
                    ));
                }
                weighted = Some(true);
                tok.parse::<u32>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?
            }
            None => {
                if weighted == Some(true) {
                    return Err(format!(
                        "line {}: unweighted edge in a weighted list",
                        lineno + 1
                    ));
                }
                weighted = Some(false);
                1
            }
        };
        if let Some(extra) = it.next() {
            return Err(format!(
                "line {}: trailing token {extra:?} after the edge",
                lineno + 1
            ));
        }
        max_v = max_v.max(s).max(d);
        edges.push((s, d, w));
    }
    let weighted = weighted == Some(true);
    let n = n_hint.unwrap_or(if edges.is_empty() {
        0
    } else {
        max_v as usize + 1
    });
    if weighted {
        Ok(Csr::from_weighted_edges(n, &edges))
    } else {
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        Ok(Csr::from_edges(n, &pairs))
    }
}

fn invalid<E: ToString>(msg: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn write_u32s<W: Write>(w: &mut W, data: &[u32]) -> io::Result<()> {
    // Chunked conversion keeps memory bounded for multi-GB graphs.
    let mut buf = Vec::with_capacity(64 * 1024);
    for chunk in data.chunks(16 * 1024) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32s(r: &mut impl Read, count: usize) -> io::Result<Vec<u32>> {
    // `count` comes from the file header, i.e. attacker-controlled: a
    // 40-byte file can claim four billion edges. Cap the *up-front*
    // allocation and let the vector grow only as bytes actually arrive —
    // a lying header then fails with a clean truncation error instead of
    // first allocating gigabytes.
    const PREALLOC_CAP: usize = 1 << 22; // 16 MiB of u32s
    let mut out = Vec::with_capacity(count.min(PREALLOC_CAP));
    let mut buf = vec![0u8; 64 * 1024];
    let mut remaining = count
        .checked_mul(4)
        .ok_or_else(|| invalid("element count overflows byte count"))?;
    while remaining > 0 {
        let take = remaining.min(buf.len());
        r.read_exact(&mut buf[..take])?;
        for b in buf[..take].chunks_exact(4) {
            out.push(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        remaining -= take;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatConfig};

    #[test]
    fn roundtrip_unweighted() {
        let g = rmat(&RmatConfig::paper(10, 20_000, 42));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_weighted() {
        let g = rmat(&RmatConfig::paper(9, 8_000, 1)).with_random_weights(3, 64);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g, back);
        assert!(back.is_weighted());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_csr(&Csr::from_edges(2, &[(0, 1)]), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut buf = Vec::new();
        write_csr(&Csr::from_edges(3, &[(0, 1), (1, 2)]), &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupted_structure_is_rejected() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        // Flip a col_idx entry to an out-of-range vertex.
        let col_pos = buf.len() - 8;
        buf[col_pos..col_pos + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(read_csr(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = rmat(&RmatConfig::paper(8, 2_000, 5));
        let dir = std::env::temp_dir().join("etagraph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.etag");
        save(&g, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_text_parsing() {
        let text = "# comment\n0 1\n1 2\n\n2 0\n";
        let g = parse_edge_list(text, None).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        let weighted = parse_edge_list("0 1 9\n1 0 4\n", Some(4)).unwrap();
        assert_eq!(weighted.n(), 4);
        assert_eq!(weighted.edge_weights(0), &[9]);
        assert!(parse_edge_list("0 x\n", None).is_err());
    }

    #[test]
    fn edge_list_errors_carry_line_numbers() {
        // Vertex-id overflow: 2^32 does not fit in u32.
        let err = parse_edge_list("0 1\n2 4294967296\n", None).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("not a u32"), "{err}");
        // An endpoint past the declared vertex count is an error, not a
        // panic inside CSR construction.
        let err = parse_edge_list("# header\n0 1\n1 7\n", Some(4)).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("out of range"), "{err}");
        assert!(err.contains("4 vertices"), "{err}");
        // Trailing garbage after the weight column.
        let err = parse_edge_list("0 1 9 junk\n", None).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("trailing token"), "{err}");
        // Mixed arity, both directions.
        let err = parse_edge_list("0 1 9\n1 2\n", None).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unweighted edge in a weighted list"), "{err}");
        let err = parse_edge_list("0 1\n1 2 5\n", None).unwrap_err();
        assert!(err.contains("weighted edge in an unweighted list"), "{err}");
        // The largest u32 ids parse but leave no room for the vertex
        // count: an error, not a panic in the CSR builder.
        let err = parse_edge_list("0 4294967295\n", None).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("too large"), "{err}");
        let err = parse_edge_list("0 1\n4294967294 0 3\n", None).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_edge_list("0 1\n", Some(u32::MAX as usize)).unwrap_err();
        assert!(err.contains("at most 4294967294"), "{err}");
    }

    #[test]
    fn lying_header_fails_without_the_giant_allocation() {
        // A 40-byte file claiming ~4 billion edges: the reader must fail on
        // truncation, not allocate the claimed 16 GiB up front. The test
        // passing at all (inside the harness memory budget) is the point.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // flags
        buf.extend_from_slice(&2u64.to_le_bytes()); // n = 2
        buf.extend_from_slice(&((u32::MAX - 1) as u64).to_le_bytes()); // m: a lie
        buf.extend_from_slice(&[0u8; 12]); // a few real bytes, then EOF
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn inconsistent_header_counts_are_rejected() {
        // row_offsets' last entry disagrees with the header's edge count.
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        // Patch the last row offset (2) to 1; header still claims m = 2.
        let off_pos = 4 + 4 + 4 + 8 + 8 + 3 * 4;
        buf[off_pos..off_pos + 4].copy_from_slice(&1u32.to_le_bytes());
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("last offset"), "{err}");
    }
}
