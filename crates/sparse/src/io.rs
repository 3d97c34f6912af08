//! Matrix Market I/O.
//!
//! SD matrices are worth inspecting with external tools (and the
//! paper-style experiments are worth running on matrices from other
//! generators), so BCRS matrices round-trip through the standard
//! `MatrixMarket coordinate real general/symmetric` text format at
//! scalar granularity. Import re-blocks scalars into 3×3 blocks and
//! therefore requires the scalar dimension to be a multiple of three.

use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::triplet::BlockTripletBuilder;
use crate::BLOCK_DIM;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors arising while reading Matrix Market data.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file contents.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Writes `a` in `coordinate real general` format (scalar entries,
/// 1-based indices). Explicit zeros inside blocks are skipped.
pub fn write_matrix_market<W: Write>(
    a: &BcrsMatrix,
    out: W,
) -> Result<(), MmError> {
    let mut out = std::io::BufWriter::new(out);
    writeln!(out, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(out, "% exported by mrhs-sparse (BCRS 3x3 blocks)")?;
    let mut nnz = 0usize;
    for bi in 0..a.nb_rows() {
        let (_, blks) = a.block_row(bi);
        for b in blks {
            nnz += b.0.iter().filter(|v| **v != 0.0).count();
        }
    }
    writeln!(out, "{} {} {}", a.n_rows(), a.n_cols(), nnz)?;
    for bi in 0..a.nb_rows() {
        let (cols, blks) = a.block_row(bi);
        for (c, b) in cols.iter().zip(blks) {
            let bj = *c as usize;
            for i in 0..BLOCK_DIM {
                for j in 0..BLOCK_DIM {
                    let v = b.get(i, j);
                    if v != 0.0 {
                        writeln!(
                            out,
                            "{} {} {:.17e}",
                            bi * BLOCK_DIM + i + 1,
                            bj * BLOCK_DIM + j + 1,
                            v
                        )?;
                    }
                }
            }
        }
    }
    out.flush()?;
    Ok(())
}

/// Reads a `coordinate real` Matrix Market stream into a BCRS matrix.
/// Supports the `general` and `symmetric` symmetry qualifiers; the
/// scalar dimensions must be square and divisible by three.
pub fn read_matrix_market<R: Read>(input: R) -> Result<BcrsMatrix, MmError> {
    let mut lines = BufReader::new(input).lines();

    let header =
        lines.next().ok_or_else(|| MmError::Parse("empty file".into()))??;
    let header_l = header.to_ascii_lowercase();
    if !header_l.starts_with("%%matrixmarket matrix coordinate real") {
        return Err(MmError::Parse(format!("unsupported header: {header}")));
    }
    let symmetric = header_l.contains("symmetric");
    if !symmetric && !header_l.contains("general") {
        return Err(MmError::Parse("only general/symmetric supported".into()));
    }

    // size line (skipping comments)
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| MmError::Parse("missing size line".into()))??;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('%') {
            break trimmed.to_string();
        }
    };
    let mut parts = size_line.split_whitespace();
    let n_rows: usize = parse(parts.next(), "rows")?;
    let n_cols: usize = parse(parts.next(), "cols")?;
    let nnz: usize = parse(parts.next(), "nnz")?;
    if n_rows != n_cols {
        return Err(MmError::Parse("matrix must be square".into()));
    }
    if !n_rows.is_multiple_of(BLOCK_DIM) {
        return Err(MmError::Parse(format!(
            "scalar dimension {n_rows} not divisible by {BLOCK_DIM}"
        )));
    }

    let nb = n_rows / BLOCK_DIM;
    if nb > u32::MAX as usize {
        return Err(MmError::Parse(format!(
            "block dimension {nb} exceeds the u32 column index range"
        )));
    }
    let mut builder = BlockTripletBuilder::square(nb);
    let mut partial: std::collections::HashMap<(usize, usize), Block3> =
        std::collections::HashMap::new();
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let i: usize = parse(parts.next(), "row index")?;
        let j: usize = parse(parts.next(), "col index")?;
        let v: f64 = parse(parts.next(), "value")?;
        if i == 0 || j == 0 || i > n_rows || j > n_cols {
            return Err(MmError::Parse(format!("index out of range: {i} {j}")));
        }
        let (i, j) = (i - 1, j - 1);
        seen += 1;
        *partial
            .entry((i / BLOCK_DIM, j / BLOCK_DIM))
            .or_insert(Block3::ZERO)
            .get_mut(i % BLOCK_DIM, j % BLOCK_DIM) += v;
        if symmetric && i != j {
            *partial
                .entry((j / BLOCK_DIM, i / BLOCK_DIM))
                .or_insert(Block3::ZERO)
                .get_mut(j % BLOCK_DIM, i % BLOCK_DIM) += v;
        }
    }
    if seen != nnz {
        return Err(MmError::Parse(format!(
            "expected {nnz} entries, found {seen}"
        )));
    }
    builder.reserve(partial.len());
    for ((bi, bj), block) in partial {
        builder.add(bi, bj, block);
    }
    Ok(builder.build())
}

fn parse<T: std::str::FromStr>(
    field: Option<&str>,
    what: &str,
) -> Result<T, MmError> {
    field
        .ok_or_else(|| MmError::Parse(format!("missing {what}")))?
        .parse()
        .map_err(|_| MmError::Parse(format!("invalid {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(3);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(1, 1, Block3::scaled_identity(3.0));
        t.add(2, 2, Block3::scaled_identity(4.0));
        t.add_symmetric_pair(
            0,
            2,
            Block3::from_rows([
                [0.5, 1.0, 0.0],
                [0.0, -0.5, 0.0],
                [0.25, 0.0, 0.125],
            ]),
        );
        t.build()
    }

    #[test]
    fn round_trip_preserves_matrix() {
        let a = sample();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a.nb_rows(), b.nb_rows());
        let (da, db) = (a.to_dense(), b.to_dense());
        for (u, v) in da.iter().zip(&db) {
            assert!((u - v).abs() < 1e-15, "{u} vs {v}");
        }
    }

    #[test]
    fn symmetric_qualifier_mirrors_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 2\n1 1 2.0\n3 1 0.5\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        let d = a.to_dense();
        assert_eq!(d[0], 2.0);
        assert_eq!(d[2 * 3], 0.5); // (3,1)
        assert_eq!(d[2], 0.5); // mirrored (1,3)
    }

    #[test]
    fn rejects_unsupported_dimensions() {
        for text in [
            "%%MatrixMarket matrix coordinate real general\n4 4 1\n1 1 1.0\n",
            // 3·2³² scalars: 2³² block rows overflow the u32 column index.
            "%%MatrixMarket matrix coordinate real general\n\
             12884901888 12884901888 0\n",
        ] {
            assert!(matches!(
                read_matrix_market(text.as_bytes()),
                Err(MmError::Parse(_))
            ));
        }
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        let text = "%%MatrixMarket matrix array real general\n3 3 0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn skips_comment_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\n3 3 1\n% another\n2 2 7.5\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.to_dense()[3 + 1], 7.5);
    }
}
