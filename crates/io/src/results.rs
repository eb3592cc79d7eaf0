//! Writers for mined closed item sets.
//!
//! The default format matches Borgelt's `ista`/`carpenter` command-line
//! programs: one set per line, item names separated by spaces, followed by
//! the absolute support in parentheses:
//!
//! ```text
//! a b c (4)
//! d e (3)
//! ```
//!
//! The writer renders lines as bytes into one reused buffer and hands the
//! sink chunks of at least 64 KiB that end on a line boundary, so
//! a `BufWriter`, a `LineWriter`, and Rust's line-buffered stdout each
//! make one `write` per chunk rather than one per line.

use fim_core::{FimError, ItemCatalog, MiningResult, TransactionDatabase};
use std::io::Write;

/// The size at which the result writer hands its buffer to the sink.
const CHUNK_BYTES: usize = 64 * 1024;

/// Writes a mining result (over raw catalog codes) with item names from
/// `db`'s catalog, in Borgelt's output format.
pub fn write_results<W: Write>(
    result: &MiningResult,
    db: &TransactionDatabase,
    writer: W,
) -> Result<(), FimError> {
    write_results_named(result, db.catalog(), writer)
}

/// Like [`write_results`], naming items from a bare [`ItemCatalog`] — for
/// results whose codes were minted outside a [`TransactionDatabase`], such
/// as a resumed stream checkpoint.
///
/// An item code with no name in `catalog` is an error; the bytes of the
/// lines before it, and of its own line up to it, reach the sink first.
pub fn write_results_named<W: Write>(
    result: &MiningResult,
    catalog: &ItemCatalog,
    mut writer: W,
) -> Result<(), FimError> {
    // room for a chunk and the line that completes it
    let mut buf = Vec::with_capacity(CHUNK_BYTES + CHUNK_BYTES / 4);
    for s in &result.sets {
        for (k, item) in s.items.iter().enumerate() {
            let Some(name) = catalog.name(item) else {
                writer.write_all(&buf)?;
                return Err(FimError::InvalidInput(format!(
                    "item code {item} has no catalog name"
                )));
            };
            if k > 0 {
                buf.push(b' ');
            }
            buf.extend_from_slice(name.as_bytes());
        }
        buf.extend_from_slice(b" (");
        push_decimal(&mut buf, s.support);
        buf.extend_from_slice(b")\n");
        if buf.len() >= CHUNK_BYTES {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    Ok(())
}

/// Appends the decimal digits of `n` to `buf`.
fn push_decimal(buf: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Writes a mining result as CSV (`items;support`, items space-separated by
/// code) — the machine-readable companion used by the experiment harness.
pub fn write_results_csv<W: Write>(result: &MiningResult, mut writer: W) -> Result<(), FimError> {
    writeln!(writer, "items;support")?;
    for s in &result.sets {
        let items: Vec<String> = s.items.iter().map(|i| i.to_string()).collect();
        writeln!(writer, "{};{}", items.join(" "), s.support)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::{FoundSet, ItemSet};

    fn fixture() -> (MiningResult, TransactionDatabase) {
        let db = TransactionDatabase::from_named(&[vec!["a", "b"], vec!["a", "c"]]);
        let result = MiningResult {
            sets: vec![
                FoundSet::new(ItemSet::from([0]), 2),
                FoundSet::new(ItemSet::from([0, 2]), 1),
            ],
        };
        (result, db)
    }

    #[test]
    fn borgelt_format() {
        let (r, db) = fixture();
        let mut out = Vec::new();
        write_results(&r, &db, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "a (2)\na c (1)\n");
    }

    #[test]
    fn csv_format() {
        let (r, _) = fixture();
        let mut out = Vec::new();
        write_results_csv(&r, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "items;support\n0;2\n0 2;1\n");
    }

    #[test]
    fn unknown_code_is_error() {
        let (mut r, db) = fixture();
        r.sets.push(FoundSet::new(ItemSet::from([99]), 1));
        let mut out = Vec::new();
        assert!(write_results(&r, &db, &mut out).is_err());
    }

    /// The line formatter the byte writer replaced, kept as its oracle.
    fn write_results_fmt<W: Write>(
        result: &MiningResult,
        catalog: &ItemCatalog,
        mut writer: W,
    ) -> Result<(), FimError> {
        for s in &result.sets {
            let mut first = true;
            for item in s.items.iter() {
                let name = catalog.name(item).ok_or_else(|| {
                    FimError::InvalidInput(format!("item code {item} has no catalog name"))
                })?;
                if !first {
                    write!(writer, " ")?;
                }
                write!(writer, "{name}")?;
                first = false;
            }
            writeln!(writer, " ({})", s.support)?;
        }
        Ok(())
    }

    /// Both writers' bytes and error text for `result`.
    fn both(result: &MiningResult, catalog: &ItemCatalog) -> [(Vec<u8>, Option<String>); 2] {
        let mut old = Vec::new();
        let old_err = write_results_fmt(result, catalog, &mut old).err();
        let mut new = Vec::new();
        let new_err = write_results_named(result, catalog, &mut new).err();
        [
            (old, old_err.map(|e| e.to_string())),
            (new, new_err.map(|e| e.to_string())),
        ]
    }

    /// A catalog of UTF-8 names of one to four bytes per character.
    fn utf8_catalog(n: usize) -> ItemCatalog {
        let mut c = ItemCatalog::new();
        for k in 0..n {
            c.intern(&format!("{}{k}", ["a", "é", "名", "🦀", "gene_x"][k % 5]));
        }
        c
    }

    /// `sets` results over `catalog`, each of 0..len items, with supports
    /// that walk the `u32` range.
    fn many_sets(sets: usize, catalog_len: u32) -> MiningResult {
        (0..sets as u32)
            .map(|k| {
                let len = k % 13;
                let items = (0..len).map(|j| (k * 7 + j * 31) % catalog_len).collect();
                FoundSet::new(ItemSet::new(items), k.wrapping_mul(2_654_435_761))
            })
            .collect()
    }

    #[test]
    fn byte_writer_matches_the_formatter() {
        let catalog = utf8_catalog(97);
        let mut edge = MiningResult {
            sets: vec![
                FoundSet::new(ItemSet::empty(), 7),
                FoundSet::new(ItemSet::from([0]), 0),
                FoundSet::new(ItemSet::from([1, 2, 3]), u32::MAX),
                FoundSet::new(ItemSet::from([96]), 1_000_000_000),
                FoundSet::new(ItemSet::from([4, 5]), 9),
                FoundSet::new(ItemSet::from([6, 7]), 10),
            ],
        };
        let [old, new] = both(&edge, &catalog);
        assert_eq!(old, new);
        assert!(String::from_utf8(new.0)
            .unwrap()
            .starts_with(" (7)\na0 (0)\n"));

        // enough lines to cross several chunk boundaries
        let big = many_sets(40_000, 97);
        let [old, new] = both(&big, &catalog);
        assert!(new.0.len() > 4 * CHUNK_BYTES, "{} bytes", new.0.len());
        assert_eq!(old, new);

        // an unknown code mid-line: the same bytes reach the sink, then
        // the same error
        edge.sets
            .insert(3, FoundSet::new(ItemSet::from([8, 500, 501]), 3));
        let [old, new] = both(&edge, &catalog);
        assert_eq!(old, new);
        assert!(new.1.unwrap().contains("item code 500 has no catalog name"));
        let mut late = big.clone();
        late.sets.push(FoundSet::new(ItemSet::from([1, 9_999]), 2));
        assert_eq!(both(&late, &catalog)[0], both(&late, &catalog)[1]);
    }

    /// A sink that counts the `write` calls that reach it.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn buffered_sinks_see_one_write_per_chunk() {
        let catalog = utf8_catalog(97);
        for sets in [0, 1, 3_000, 40_000] {
            let result = many_sets(sets, 97);
            let bound = |sink: &CountingSink| sink.bytes.div_ceil(CHUNK_BYTES) + 1;

            let mut buffered = std::io::BufWriter::new(CountingSink::default());
            write_results_named(&result, &catalog, &mut buffered).unwrap();
            buffered.flush().unwrap();
            let sink = buffered.get_ref();
            assert!(
                sink.writes <= bound(sink),
                "BufWriter: {} writes for {} bytes",
                sink.writes,
                sink.bytes
            );

            let mut lines = std::io::LineWriter::new(CountingSink::default());
            write_results_named(&result, &catalog, &mut lines).unwrap();
            lines.flush().unwrap();
            let sink = lines.get_ref();
            assert!(
                sink.writes <= bound(sink),
                "LineWriter: {} writes for {} bytes",
                sink.writes,
                sink.bytes
            );
            if sets >= 3_000 {
                assert!(
                    sink.writes < sets / 100,
                    "{} writes for {sets} lines",
                    sink.writes
                );
            }
        }
    }
}
