//! The traced replay: the layers of one `fim mine` run, called through
//! their public functions in the order the CLI calls them, each inside a
//! span of a `fim-trace/1` event stream.

use crate::workload::Workload;
use fim_carpenter::CarpenterListMiner;
use fim_core::{ItemOrder, RecodedDatabase, TransactionDatabase, TransactionOrder};
use fim_ista::IstaMiner;
use fim_obs::{Counter, TraceWriter};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, LineWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Per-layer metrics by name (`parse.self_s`, `mine.seg_scans`, …).
pub type Metrics = BTreeMap<String, f64>;

/// The layers whose self time the replay reports, in call order.
const LAYERS: [&str; 7] = [
    "parse",
    "recode",
    "mine",
    "decode",
    "canonicalize",
    "drop",
    "write",
];

/// Runs one traced replay of `w` on `input`, writes its trace to
/// `trace_path`, and returns each layer's self time and the resident set
/// after the mine and decode layers.
pub fn run(w: &Workload, input: &Path, out: &Path, trace_path: &Path) -> Result<Metrics, String> {
    let buffer = SharedBuffer::default();
    let mut trace = TraceWriter::new(Box::new(buffer.clone()));
    let (mine_rss, decode_rss) = replay(w, input, out, &mut trace)?;
    trace.finish();
    let text = String::from_utf8(buffer.take()).map_err(|e| format!("trace is not UTF-8: {e}"))?;
    std::fs::write(trace_path, &text)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let self_s = self_times(&text)?;
    let mut metrics = Metrics::new();
    for layer in LAYERS {
        let t = self_s.get(layer).copied().unwrap_or(0.0);
        metrics.insert(format!("{layer}.self_s"), t);
    }
    metrics.insert("mine.rss_mb".into(), mine_rss);
    metrics.insert("decode.rss_mb".into(), decode_rss);
    Ok(metrics)
}

/// The miner's work counters from two untimed `mine_with_stats` runs of
/// `input`, which must agree exactly, or the counters cannot gate anything.
pub fn counters(w: &Workload, input: &Path) -> Result<Metrics, String> {
    let db = fim_io::read_fimi_path(input).map_err(|e| e.to_string())?;
    let recoded = prepare(w, &db);
    let first = mine_counters(w, &recoded);
    let second = mine_counters(w, &recoded);
    if first != second {
        return Err(format!(
            "two runs of one input disagree on the mine counters: {first:?} vs {second:?}"
        ));
    }
    Ok(first)
}

/// The replay, inside a `replay` root span; returns the resident set in
/// MB after the mine and the decode layers.
fn replay(
    w: &Workload,
    input: &Path,
    out: &Path,
    trace: &mut TraceWriter,
) -> Result<(f64, f64), String> {
    let miner = fim_bench::miner_by_name(w.algo)?;
    trace.begin("replay");
    trace.begin("parse");
    let db = fim_io::read_fimi_path(input).map_err(|e| e.to_string())?;
    trace.end();
    trace.begin("recode");
    let recoded = prepare(w, &db);
    trace.end();
    trace.begin("mine");
    let raw = miner.mine(&recoded, w.supp.max(1));
    trace.end();
    let mine_rss = rss_mb()?;
    trace.begin("decode");
    let mut result = raw.decode(recoded.recode());
    trace.end();
    let decode_rss = rss_mb()?;
    // The CLI drops the dense result right after decoding it and the
    // recoded database after canonicalizing; the rest goes at exit.
    trace.begin("drop");
    drop(raw);
    trace.end();
    trace.begin("canonicalize");
    result.canonicalize();
    trace.end();
    trace.begin("drop");
    drop(recoded);
    trace.end();
    trace.begin("write");
    write(&result, &db, out, w.stdout)?;
    trace.end();
    trace.begin("drop");
    drop(result);
    drop(db);
    trace.end();
    trace.end();
    Ok((mine_rss, decode_rss))
}

/// `RecodedDatabase::prepare` with the CLI's default orders.
pub fn prepare(w: &Workload, db: &TransactionDatabase) -> RecodedDatabase {
    RecodedDatabase::prepare(
        db,
        w.supp,
        ItemOrder::AscendingFrequency,
        TransactionOrder::AscendingSize,
    )
}

/// Writes through the sink kind the CLI uses: a `BufWriter` for `--out`,
/// and a `LineWriter`, like Rust's stdout, when the result goes to stdout.
fn write(
    result: &fim_core::MiningResult,
    db: &TransactionDatabase,
    out: &Path,
    stdout: bool,
) -> Result<(), String> {
    let file = File::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let flushed = if stdout {
        let mut sink = LineWriter::new(file);
        fim_io::write_results(result, db, &mut sink)
            .map_err(|e| e.to_string())
            .and_then(|()| sink.flush().map_err(|e| e.to_string()))
    } else {
        let mut sink = BufWriter::new(file);
        fim_io::write_results(result, db, &mut sink)
            .map_err(|e| e.to_string())
            .and_then(|()| sink.flush().map_err(|e| e.to_string()))
    };
    flushed.map_err(|e| format!("writing {}: {e}", out.display()))
}

fn rss_mb() -> Result<f64, String> {
    fim_obs::vm_status().map(|s| s.rss_kb as f64 / 1024.0)
}

/// The miner's work counters from one untimed `mine_with_stats` run, under
/// the same names for every miner; a counter the miner does not drive
/// reads 0.
fn mine_counters(w: &Workload, recoded: &RecodedDatabase) -> Metrics {
    let (sets, counters, peak_nodes, tree_bytes, prune_passes) = match w.algo {
        "ista" => {
            let (result, stats) = IstaMiner::default().mine_with_stats(recoded, w.supp.max(1));
            (
                result.len(),
                stats.counters,
                stats.peak_nodes,
                stats.memory.approx_bytes,
                stats.prune_passes,
            )
        }
        "carpenter-lists" => {
            let (result, counters) =
                CarpenterListMiner::default().mine_with_stats(recoded, w.supp.max(1));
            (result.len(), counters, 0, 0, 0)
        }
        other => unreachable!("no workload times miner '{other}'"),
    };
    let get = |c: Counter| counters.get(c) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = Metrics::new();
    for c in [
        Counter::SegScans,
        Counter::NodeAllocs,
        Counter::Splits,
        Counter::IsectEarlyExits,
        Counter::SearchSteps,
        Counter::RepoLookups,
        Counter::RepoHits,
        Counter::AbsorptionHits,
        Counter::Eliminations,
        Counter::TidEarlyStops,
    ] {
        m.insert(format!("mine.{}", c.name()), get(c));
    }
    m.insert("mine.peak_nodes".into(), peak_nodes as f64);
    m.insert("mine.tree_bytes".into(), tree_bytes as f64);
    m.insert("mine.prune_passes".into(), prune_passes as f64);
    m.insert("mine.sets".into(), sets as f64);
    m.insert(
        "mine.early_exit_rate".into(),
        ratio(get(Counter::IsectEarlyExits), get(Counter::SegScans)),
    );
    m.insert(
        "mine.reported_per_peak_node".into(),
        ratio(sets as f64, peak_nodes as f64),
    );
    m.insert(
        "mine.repo_hit_rate".into(),
        ratio(get(Counter::RepoHits), get(Counter::RepoLookups)),
    );
    m
}

/// Self time per span name, summed over the spans of that name: a span's
/// duration minus the part of it its child spans cover.
fn self_times(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let events = fim_obs::read_trace(text)?;
    fim_obs::validate_trace_pairing(&events)?;
    let mut open: Vec<(String, u64, u64)> = Vec::new();
    let mut self_s = BTreeMap::new();
    for e in events {
        match e.ph.as_str() {
            "B" => open.push((e.name, e.ts_us, 0)),
            "E" => {
                let (name, start, children) = open.pop().ok_or("unpaired trace end")?;
                let dur = e.ts_us.saturating_sub(start);
                if let Some(parent) = open.last_mut() {
                    parent.2 += dur;
                }
                *self_s.entry(name).or_insert(0.0) += dur.saturating_sub(children) as f64 / 1e6;
            }
            _ => {}
        }
    }
    Ok(self_s)
}

/// An in-memory trace sink: the spans stay in memory while the replay
/// runs and are written to disk once it ends.
#[derive(Clone, Default)]
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("trace buffer lock poisoned"))
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_repeated_names() {
        let text = r#"[
{"ph":"M","pid":1,"tid":1,"name":"fim_trace_schema","args":{"schema":"fim-trace/1"}},
{"ph":"B","pid":1,"tid":1,"ts":0,"name":"replay"},
{"ph":"B","pid":1,"tid":1,"ts":10,"name":"drop"},
{"ph":"E","pid":1,"tid":1,"ts":30,"name":"drop"},
{"ph":"B","pid":1,"tid":1,"ts":30,"name":"write"},
{"ph":"E","pid":1,"tid":1,"ts":100,"name":"write"},
{"ph":"B","pid":1,"tid":1,"ts":100,"name":"drop"},
{"ph":"E","pid":1,"tid":1,"ts":105,"name":"drop"},
{"ph":"E","pid":1,"tid":1,"ts":110,"name":"replay"},
]"#;
        let t = self_times(text).unwrap();
        assert_eq!(t["drop"], 25e-6);
        assert_eq!(t["write"], 70e-6);
        assert_eq!(t["replay"], 15e-6);
    }
}
