//! The benchmark's workloads and their seeded inputs.

use fim_core::{Item, TransactionDatabase};
use fim_synth::Preset;

/// One `fim mine` invocation over one generated input.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    pub preset: Preset,
    pub scale: f64,
    /// Absolute minimum support (`--supp`).
    pub supp: u32,
    /// The miner under test (`--algo`); `fim mine` and the bench registry
    /// build the same default miner for every name used here.
    pub algo: &'static str,
    /// A miner of another family whose output gates the one under test.
    pub reference: &'static str,
    /// Whether the result goes to stdout (redirected to a file) instead of
    /// `--out FILE`.
    pub stdout: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ncbi60-ista",
        preset: Preset::Ncbi60,
        scale: 0.5,
        supp: 24,
        algo: "ista",
        reference: "carpenter-table",
        stdout: false,
    },
    Workload {
        name: "yeast-ista",
        preset: Preset::Yeast,
        scale: 0.5,
        supp: 50,
        algo: "ista",
        reference: "lcm",
        stdout: false,
    },
    Workload {
        name: "webview-carpenter",
        preset: Preset::Webview,
        scale: 1.0,
        supp: 2,
        algo: "carpenter-lists",
        reference: "ista",
        stdout: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Result<&'static Workload, String> {
        WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (one of {})", names.join(", "))
        })
    }

    /// The `fim` arguments of the run, without `--in` and `--out`.
    pub fn cli_args(&self) -> Vec<String> {
        [
            "mine",
            "--algo",
            self.algo,
            "--supp",
            &self.supp.to_string(),
        ]
        .map(String::from)
        .to_vec()
    }

    /// The input of one run: the preset's `instance`, with item names
    /// permuted and transactions shuffled by `seed`.
    ///
    /// A relabelled instance poses the same mining problem, so the work a
    /// run does is the same for every seed while the bytes the program
    /// reads and writes differ. Presets built from different generator
    /// seeds differ up to sixfold in run time, far beyond any useful
    /// regression bound.
    pub fn generate(&self, instance: u64, seed: u64) -> TransactionDatabase {
        let base = self.preset.build(self.scale, instance);
        let catalog = base.catalog();
        let mut rng = SplitMix64(seed);
        let mut names: Vec<&str> = (0..catalog.len() as Item)
            .map(|i| catalog.name(i).expect("preset catalogs name every code"))
            .collect();
        rng.shuffle(&mut names);
        let mut rows: Vec<Vec<&str>> = base
            .transactions()
            .iter()
            .map(|t| t.iter().map(|i| names[i as usize]).collect())
            .collect();
        rng.shuffle(&mut rows);
        TransactionDatabase::from_named(&rows)
    }
}

/// SplitMix64: a small, fixed generator, so a seed names the same input on
/// every platform and in every version of the workspace's generators.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(db: &TransactionDatabase) -> Vec<usize> {
        let mut lens: Vec<usize> = db.transactions().iter().map(|t| t.len()).collect();
        lens.sort_unstable();
        lens
    }

    #[test]
    fn a_seed_names_one_input_and_seeds_relabel_one_instance() {
        let w = Workload::by_name("ncbi60-ista").unwrap();
        let a = w.generate(1, 7);
        assert_eq!(a.transactions(), w.generate(1, 7).transactions());
        let b = w.generate(1, 8);
        assert_ne!(a.transactions(), b.transactions());
        assert_eq!(shape(&a), shape(&b));
        let mut fa = a.item_frequencies();
        let mut fb = b.item_frequencies();
        fa.sort_unstable();
        fb.sort_unstable();
        assert_eq!(fa, fb);
    }
}
