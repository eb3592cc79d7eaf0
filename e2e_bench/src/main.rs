//! `fim-e2e`: the in-process half of the end-to-end `fim mine` benchmark,
//! run by `run.py`. Each subcommand prints one JSON object.
//!
//! ```text
//! fim-e2e prepare --workload W --instance I --seed S --dir D
//!     writes D/input.fimi and the gate's D/reference.out
//! fim-e2e setup   --workload W --input F
//!     the time of read_fimi_path + RecodedDatabase::prepare in a fresh
//!     process, as `fim mine` pays it
//! fim-e2e replay  --workload W --input F --out O --trace T
//!     one traced per-layer replay
//! fim-e2e counters --workload W --input F
//!     the miner's work counters, from two untimed runs that must agree
//! fim-e2e digest  FILE
//!     the FNV-1a digest of FILE
//! ```

mod replay;
mod workload;

use fim_core::{ItemOrder, TransactionOrder};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Stack for the gate's reference miners, whose recursion is deep.
const MINER_STACK: usize = 1 << 30;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fim-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let (command, rest) = argv.split_first().ok_or("missing subcommand")?;
    if command == "digest" {
        let [path] = rest else {
            return Err("digest takes one file".into());
        };
        return Ok(format!(
            "{{\"fnv1a\":\"{:016x}\"}}",
            digest(Path::new(path))?
        ));
    }
    let flags = Flags::new(rest)?;
    let w = Workload::by_name(flags.get("workload")?)?;
    match command.as_str() {
        "prepare" => prepare(
            w,
            flags.parse("instance")?,
            flags.parse("seed")?,
            &PathBuf::from(flags.get("dir")?),
        ),
        "setup" => setup(w, Path::new(flags.get("input")?)),
        "replay" => replay::run(
            w,
            Path::new(flags.get("input")?),
            Path::new(flags.get("out")?),
            Path::new(flags.get("trace")?),
        )
        .map(|m| to_json(&m)),
        "counters" => replay::counters(w, Path::new(flags.get("input")?)).map(|m| to_json(&m)),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Generates the input of (`instance`, `seed`), and mines it with the
/// workload's reference miner, written the way `fim mine` writes.
fn prepare(w: &'static Workload, instance: u64, seed: u64, dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let input = dir.join("input.fimi");
    let reference = dir.join("reference.out");
    let db = w.generate(instance, seed);
    write_file(&input, |f| fim_io::write_fimi(&db, f))?;
    // the reference reads the file back, as the program under test does
    let db = fim_io::read_fimi_path(&input).map_err(|e| e.to_string())?;
    let result = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(MINER_STACK)
            .spawn_scoped(s, || -> Result<_, String> {
                let miner = fim_bench::miner_by_name(w.reference)?;
                Ok(fim_core::mine_closed_with_orders(
                    &db,
                    w.supp,
                    miner.as_ref(),
                    ItemOrder::AscendingFrequency,
                    TransactionOrder::AscendingSize,
                ))
            })
            .map_err(|e| format!("cannot start the reference miner: {e}"))?
            .join()
            .map_err(|_| "the reference miner panicked".to_string())?
    })?;
    write_file(&reference, |f| fim_io::write_results(&result, &db, f))?;
    let args: Vec<String> = w.cli_args().iter().map(|a| format!("\"{a}\"")).collect();
    Ok(format!(
        "{{\"transactions\":{},\"items\":{},\"input_bytes\":{},\"input_fnv1a\":\"{:016x}\",\
         \"sets\":{},\"reference\":\"{}\",\"reference_fnv1a\":\"{:016x}\",\"stdout\":{},\"args\":[{}]}}",
        db.num_transactions(),
        db.num_items(),
        file_len(&input)?,
        digest(&input)?,
        result.len(),
        w.reference,
        digest(&reference)?,
        w.stdout,
        args.join(",")
    ))
}

/// Times `read_fimi_path` + `RecodedDatabase::prepare` once, untraced.
fn setup(w: &Workload, input: &Path) -> Result<String, String> {
    let started = Instant::now();
    let db = fim_io::read_fimi_path(input).map_err(|e| e.to_string())?;
    let recoded = replay::prepare(w, &db);
    let elapsed = started.elapsed().as_secs_f64();
    std::hint::black_box(&recoded);
    Ok(format!("{{\"setup_s\":{elapsed}}}"))
}

fn to_json(metrics: &replay::Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn write_file(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), fim_core::FimError>,
) -> Result<(), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut sink = BufWriter::new(file);
    fill(&mut sink).map_err(|e| format!("writing {}: {e}", path.display()))?;
    sink.flush()
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn digest(path: &Path) -> Result<u64, String> {
    fim_obs::fnv1a_file(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// `--name value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn new(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)?
            .parse()
            .map_err(|e| format!("bad --{name}: {e}"))
    }
}
