//! The one name → miner table. `fim mine`, `fim rules`, the experiment
//! runners, and the end-to-end benchmark helper all build their miners
//! here, and [`Miner::run`] is the one place that picks each miner's
//! counting entry point (`*_with_stats` / `*_with_obs`) for a mining call
//! that combines a budget, constraints, and observability as asked.

use fim_baseline::{
    AprioriMiner, DEclatMiner, EclatMiner, FpCloseMiner, LcmClassicMiner, LcmMiner,
    NaiveCumulativeMiner, SamMiner,
};
use fim_carpenter::{CarpenterConfig, CarpenterListMiner, CarpenterTableMiner};
use fim_core::Representation::{self, Bitset, Gallop};
use fim_core::{
    apply_constraints_owned, Budget, ClosedMiner, ConstraintSet, MineOutcome, MiningResult,
    RecodedDatabase,
};
use fim_ista::{
    IstaMiner, MineStats, ParallelConfig, ParallelIstaMiner, ParallelMineStats, PrunePolicy,
};
use fim_obs::{Counter, Counters, Obs, PassMetrics, ShardMetrics, TreeMetrics};

/// The miner `fim mine` runs without `--algo`, and the only one its
/// streaming and out-of-core paths run.
pub const DEFAULT_MINER: &str = "ista";

/// A registered miner, kept as its concrete type so [`Miner::run`] can
/// reach the entry points that report work counters.
pub enum Miner {
    /// Sequential IsTa, any tree layout and kernel.
    Ista(IstaMiner),
    /// Data-parallel IsTa.
    IstaPar(ParallelIstaMiner),
    /// Carpenter over transaction lists.
    CarpenterLists(CarpenterListMiner),
    /// Carpenter over the bit table.
    CarpenterTable(CarpenterTableMiner),
    /// Eclat.
    Eclat(EclatMiner),
    /// dEclat.
    DEclat(DEclatMiner),
    /// LCM with closure reuse.
    Lcm(LcmMiner),
    /// A miner with no counting entry point; its runs report zero counters.
    Other(Box<dyn ClosedMiner>),
}

/// Builds a miner of type `M` from its default with one field changed.
fn tweaked<M: Default>(wrap: fn(M) -> Miner, tweak: fn(&mut M)) -> Miner {
    let mut m = M::default();
    tweak(&mut m);
    wrap(m)
}

/// A registered name and its constructor.
type Entry = (&'static str, fn() -> Miner);

/// Every registered name with its constructor: plain variants first,
/// ablations after.
#[rustfmt::skip]
const MINERS: [Entry; 29] = [
    ("ista", || Miner::Ista(IstaMiner::default())),
    ("ista-par", || Miner::IstaPar(ParallelIstaMiner::default())),
    ("carpenter-table", || Miner::CarpenterTable(CarpenterTableMiner::default())),
    ("carpenter-lists", || Miner::CarpenterLists(CarpenterListMiner::default())),
    ("fpclose", || Miner::Other(Box::new(FpCloseMiner))),
    ("lcm", || Miner::Lcm(LcmMiner)),
    ("eclat", || Miner::Eclat(EclatMiner::default())),
    ("declat", || Miner::DEclat(DEclatMiner::default())),
    ("sam", || Miner::Other(Box::new(SamMiner))),
    ("apriori", || Miner::Other(Box::new(AprioriMiner))),
    ("naive-cumulative", || Miner::Other(Box::new(NaiveCumulativeMiner))),
    ("ista-bitset", || tweaked(Miner::Ista, |m| m.config.rep = Bitset)),
    ("eclat-bitset", || Miner::Eclat(EclatMiner::with_rep(Bitset))),
    ("eclat-gallop", || Miner::Eclat(EclatMiner::with_rep(Gallop))),
    ("declat-bitset", || Miner::DEclat(DEclatMiner::with_rep(Bitset))),
    ("declat-gallop", || Miner::DEclat(DEclatMiner::with_rep(Gallop))),
    ("carpenter-lists-bitset", || tweaked(Miner::CarpenterLists, |m| m.rep = Bitset)),
    ("carpenter-lists-gallop", || tweaked(Miner::CarpenterLists, |m| m.rep = Gallop)),
    ("ista-noprune", || tweaked(Miner::Ista, |m| m.config.policy = PrunePolicy::Never)),
    ("ista-nocoalesce", || tweaked(Miner::Ista, |m| m.config.coalesce = false)),
    ("ista-nocompact", || tweaked(Miner::Ista, |m| m.config.compact = false)),
    ("ista-plain", || tweaked(Miner::Ista, |m| m.config.patricia = false)),
    ("carpenter-table-noprune", || tweaked(Miner::CarpenterTable, |m| m.config = CarpenterConfig::unpruned())),
    ("carpenter-table-noelim", || tweaked(Miner::CarpenterTable, |m| m.config.item_elimination = false)),
    ("carpenter-table-noabsorb", || tweaked(Miner::CarpenterTable, |m| m.config.perfect_extension = false)),
    ("carpenter-table-norepo", || tweaked(Miner::CarpenterTable, |m| m.config.repo_prune = false)),
    ("carpenter-lists-noelim", || tweaked(Miner::CarpenterLists, |m| m.config.item_elimination = false)),
    ("carpenter-lists-noearly", || tweaked(Miner::CarpenterLists, |m| m.config.early_stop = false)),
    ("lcm-noreuse", || Miner::Other(Box::new(LcmClassicMiner))),
];

/// All registered algorithm names (plain variants first, ablations after).
pub fn all_miner_names() -> impl Iterator<Item = &'static str> {
    MINERS.iter().map(|&(name, _)| name)
}

/// Builds the registered miner `name`.
pub fn miner(name: &str) -> Result<Miner, String> {
    MINERS
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, build)| build())
        .ok_or_else(|| format!("unknown algorithm '{name}'"))
}

/// Looks up a miner by registry name, behind the common trait.
pub fn miner_by_name(name: &str) -> Result<Box<dyn ClosedMiner>, String> {
    miner(name).map(Miner::into_dyn)
}

/// The options of one [`Miner::run`]. Each is optional, and any
/// combination is accepted.
#[derive(Default)]
pub struct MineCall<'a> {
    /// The resource budget; `None` runs ungoverned.
    pub budget: Option<&'a Budget>,
    /// Constraints over the dense codes of the database (exclusion already
    /// projected away), and whether to push them into the search; `false`
    /// post-filters the unconstrained answer.
    pub constraints: Option<(&'a ConstraintSet, bool)>,
    /// Observability threaded into the miners that record phase spans and
    /// the heartbeat (sequential IsTa); the others ignore it.
    pub obs: Option<&'a mut Obs>,
}

/// What a [`Miner::run`] reports beside its outcome. A section the miner
/// does not measure stays `None`; a counter it does not keep stays zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Work counters.
    pub counters: Counters,
    /// Distinct transactions after coalescing.
    pub distinct_transactions: Option<u64>,
    /// Prefix-tree occupancy.
    pub tree: Option<TreeMetrics>,
    /// Maintenance passes.
    pub passes: Option<PassMetrics>,
    /// Parallel shards.
    pub shards: Option<ShardMetrics>,
    /// Whether the miner already emitted the final heartbeat.
    pub heartbeat_finished: bool,
}

impl From<Counters> for RunStats {
    fn from(counters: Counters) -> Self {
        RunStats {
            counters,
            ..RunStats::default()
        }
    }
}

impl From<MineStats> for RunStats {
    fn from(s: MineStats) -> Self {
        RunStats {
            counters: s.counters,
            distinct_transactions: Some(s.distinct_transactions as u64),
            tree: Some(s.memory.to_metrics(s.peak_nodes)),
            passes: Some(PassMetrics {
                prune_passes: s.prune_passes as u64,
                compactions: s.compactions as u64,
            }),
            ..RunStats::default()
        }
    }
}

impl From<ParallelMineStats> for RunStats {
    fn from(s: ParallelMineStats) -> Self {
        RunStats {
            counters: s.counters,
            // no cross-shard peak is tracked; the reduced tree's arena
            // high-water (total slots) is the closest honest figure
            tree: Some(s.memory.to_metrics(s.memory.total_slots)),
            shards: Some(ShardMetrics {
                shards: s.shards as u64,
                recovered: s.shards_recovered as u64,
            }),
            ..RunStats::default()
        }
    }
}

/// What a counting entry point returns, as a run's outcome and stats.
trait Counted {
    fn counted(self) -> (MineOutcome, RunStats);
}

impl<S: Into<RunStats>> Counted for (MiningResult, S) {
    fn counted(self) -> (MineOutcome, RunStats) {
        (MineOutcome::complete(self.0), self.1.into())
    }
}

impl<S: Into<RunStats>> Counted for (MineOutcome, S) {
    fn counted(self) -> (MineOutcome, RunStats) {
        (self.0, self.1.into())
    }
}

impl Miner {
    /// The miner behind the common trait.
    pub fn as_dyn(&self) -> &dyn ClosedMiner {
        match self {
            Miner::Ista(m) => m,
            Miner::IstaPar(m) => m,
            Miner::CarpenterLists(m) => m,
            Miner::CarpenterTable(m) => m,
            Miner::Eclat(m) => m,
            Miner::DEclat(m) => m,
            Miner::Lcm(m) => m,
            Miner::Other(m) => m.as_ref(),
        }
    }

    /// The miner boxed behind the common trait.
    pub fn into_dyn(self) -> Box<dyn ClosedMiner> {
        match self {
            Miner::Ista(m) => Box::new(m),
            Miner::IstaPar(m) => Box::new(m),
            Miner::CarpenterLists(m) => Box::new(m),
            Miner::CarpenterTable(m) => Box::new(m),
            Miner::Eclat(m) => Box::new(m),
            Miner::DEclat(m) => Box::new(m),
            Miner::Lcm(m) => Box::new(m),
            Miner::Other(m) => m,
        }
    }

    /// The miner's stable name (see [`ClosedMiner::name`]).
    pub fn name(&self) -> &'static str {
        self.as_dyn().name()
    }

    /// The tid-set kernel the miner runs, for the miners that have one
    /// (the parallel shards always run the scalar kernel).
    pub fn rep(&self) -> Option<Representation> {
        match self {
            Miner::Ista(m) => Some(m.config.rep),
            Miner::IstaPar(_) => Some(Representation::Scalar),
            Miner::CarpenterLists(m) => Some(m.rep),
            Miner::Eclat(m) => Some(m.rep),
            Miner::DEclat(m) => Some(m.rep),
            _ => None,
        }
    }

    /// Selects the tid-set kernel. Fails for miners without a kernel
    /// choice, and when `rep` contradicts the kernel a `-bitset`/`-gallop`
    /// name already chose. The plain IsTa layout has no bitset kernel and
    /// IsTa no galloping one: those selections run the scalar path.
    pub fn set_rep(&mut self, rep: Representation) -> Result<(), String> {
        let name = self.name();
        let slot = match self {
            Miner::Ista(m) => &mut m.config.rep,
            Miner::CarpenterLists(m) => &mut m.rep,
            Miner::Eclat(m) => &mut m.rep,
            Miner::DEclat(m) => &mut m.rep,
            Miner::IstaPar(_) => {
                return Err(
                    "not available for the parallel miner (the shards run the scalar kernel)"
                        .into(),
                )
            }
            _ => {
                return Err(format!(
                    "not available for '{name}' (kernelized: ista, eclat, declat, carpenter-lists)"
                ))
            }
        };
        if *slot != Representation::Scalar && *slot != rep {
            return Err(format!(
                "{rep} conflicts with the '-{slot}' algorithm-name suffix"
            ));
        }
        *slot = rep;
        Ok(())
    }

    /// Switches pruning off: IsTa's item elimination, or all of Carpenter's
    /// table prunes. Fails for the other miners.
    pub fn disable_pruning(&mut self) -> Result<(), String> {
        match self {
            Miner::Ista(m) => m.config.policy = PrunePolicy::Never,
            Miner::IstaPar(m) => m.config.policy = PrunePolicy::Never,
            Miner::CarpenterTable(m) => m.config = CarpenterConfig::unpruned(),
            _ => return Err(format!("not available for '{}'", self.name())),
        }
        Ok(())
    }

    /// Switches off IsTa's hot-path features: transaction coalescing, arena
    /// compaction, and the path-compressed (Patricia) layout, whichever is
    /// `false`. Fails when one is switched off for a non-IsTa miner, or the
    /// layout for the parallel miner (its shards are path-compressed only).
    pub fn restrict_ista(
        &mut self,
        coalesce: bool,
        compact: bool,
        patricia: bool,
    ) -> Result<(), String> {
        match self {
            _ if coalesce && compact && patricia => {}
            Miner::Ista(m) => {
                m.config.coalesce &= coalesce;
                m.config.compact &= compact;
                m.config.patricia &= patricia;
            }
            Miner::IstaPar(m) if patricia => {
                m.config.coalesce &= coalesce;
                m.config.compact &= compact;
            }
            Miner::IstaPar(_) => return Err(PLAIN_IS_SEQUENTIAL.into()),
            _ => {
                return Err(
                    "--no-coalesce/--no-compact/--no-patricia are only available for ista variants"
                        .into(),
                )
            }
        }
        Ok(())
    }

    /// The data-parallel form of an IsTa miner with `threads` shards
    /// (0 = one per core), carrying its prune policy and hot-path toggles
    /// over. Fails for every other miner.
    pub fn into_parallel(self, threads: usize) -> Result<Miner, String> {
        match self {
            Miner::Ista(m) if !m.config.patricia => Err(PLAIN_IS_SEQUENTIAL.into()),
            Miner::Ista(m) if m.config.rep != Representation::Scalar => {
                Err("the parallel miner runs the scalar kernel only".into())
            }
            Miner::Ista(m) => Ok(Miner::IstaPar(ParallelIstaMiner::with_config(
                ParallelConfig {
                    threads,
                    policy: m.config.policy,
                    coalesce: m.config.coalesce,
                    compact: m.config.compact,
                },
            ))),
            Miner::IstaPar(mut m) => {
                m.config.threads = threads;
                Ok(Miner::IstaPar(m))
            }
            other => Err(format!("not available for '{}'", other.name())),
        }
    }

    /// Mines `db` at `minsupp` with whichever of a budget, constraints, and
    /// observability `call` carries, through the miner's counting entry
    /// point for that combination. A combination without one runs through
    /// [`ClosedMiner`] and reports zero counters.
    ///
    /// Pushed constraints run the miner's constrained search; IsTa's push
    /// is the support floor a min-area constraint implies, with the other
    /// constraints gating the report. Unpushed constraints, and miners that
    /// do not push, post-filter the unconstrained answer. Either way an
    /// interrupted partial stays an exact subset of the complete answer,
    /// and `constraint_prunes` counts the sets the report gate dropped.
    pub fn run(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        call: MineCall<'_>,
    ) -> (MineOutcome, RunStats) {
        let MineCall {
            budget,
            constraints,
            obs,
        } = call;
        let minsupp = minsupp.max(1);
        let Some((cs, push)) = constraints else {
            return self.run_unconstrained(db, minsupp, budget, obs);
        };
        let pushed = push && self.as_dyn().supports_constraints();
        let (outcome, mut stats) = match (self, budget) {
            (Miner::CarpenterLists(m), None) if pushed => {
                return m.mine_constrained_with_stats(db, minsupp, cs).counted()
            }
            (Miner::CarpenterTable(m), None) if pushed => {
                return m.mine_constrained_with_stats(db, minsupp, cs).counted()
            }
            (Miner::Eclat(m), None) if pushed => {
                return m.mine_constrained_with_stats(db, minsupp, cs).counted()
            }
            (Miner::DEclat(m), None) if pushed => {
                return m.mine_constrained_with_stats(db, minsupp, cs).counted()
            }
            (Miner::Ista(_), _) if pushed => {
                let floor = cs.support_floor(db.num_items(), minsupp);
                if floor == u32::MAX {
                    return (
                        MineOutcome::complete(MiningResult::new()),
                        RunStats::default(),
                    );
                }
                self.run_unconstrained(db, floor, budget, obs)
            }
            (m, Some(b)) if pushed => {
                let outcome = m.as_dyn().mine_constrained_governed(db, minsupp, cs, b);
                return (outcome, RunStats::default());
            }
            _ => self.run_unconstrained(db, minsupp, budget, obs),
        };
        let mut dropped = 0;
        let outcome = outcome.map_result(|r| {
            let before = r.len();
            let r = apply_constraints_owned(r, cs);
            dropped = (before - r.len()) as u64;
            r
        });
        stats.counters.add(Counter::ConstraintPrunes, dropped);
        (outcome, stats)
    }

    fn run_unconstrained(
        &self,
        db: &RecodedDatabase,
        minsupp: u32,
        budget: Option<&Budget>,
        obs: Option<&mut Obs>,
    ) -> (MineOutcome, RunStats) {
        match (self, budget) {
            (Miner::Ista(m), _) => {
                let observed = obs.is_some();
                let (outcome, mut stats) = match (budget, obs) {
                    (None, None) => m.mine_with_stats(db, minsupp).counted(),
                    (None, Some(o)) => m.mine_with_obs(db, minsupp, o).counted(),
                    (Some(b), None) => m.mine_governed_with_stats(db, minsupp, b).counted(),
                    (Some(b), Some(o)) => m.mine_governed_with_obs(db, minsupp, b, o).counted(),
                };
                // the miner closes the heartbeat itself when it completes
                stats.heartbeat_finished = observed && !outcome.is_interrupted();
                (outcome, stats)
            }
            (Miner::IstaPar(m), None) => m.mine_with_stats(db, minsupp).counted(),
            (Miner::IstaPar(m), Some(b)) => m.mine_governed_with_stats(db, minsupp, b).counted(),
            (Miner::CarpenterLists(m), None) => m.mine_with_stats(db, minsupp).counted(),
            (Miner::CarpenterLists(m), Some(b)) => {
                m.mine_governed_with_stats(db, minsupp, b).counted()
            }
            (Miner::CarpenterTable(m), None) => m.mine_with_stats(db, minsupp).counted(),
            (Miner::CarpenterTable(m), Some(b)) => {
                m.mine_governed_with_stats(db, minsupp, b).counted()
            }
            (Miner::Eclat(m), None) => m.mine_with_stats(db, minsupp).counted(),
            (Miner::DEclat(m), None) => m.mine_with_stats(db, minsupp).counted(),
            (Miner::Lcm(m), None) => m.mine_with_stats(db, minsupp).counted(),
            (m, None) => (m.as_dyn().mine(db, minsupp), Counters::new()).counted(),
            (m, Some(b)) => (m.as_dyn().mine_governed(db, minsupp, b), Counters::new()).counted(),
        }
    }
}

const PLAIN_IS_SEQUENTIAL: &str =
    "the uncompressed tree (--no-patricia / ista-plain) is sequential only";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        let names: Vec<_> = all_miner_names().collect();
        let mut distinct = names.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), names.len(), "duplicate names");
        for name in names {
            assert!(!miner(name).unwrap().name().is_empty(), "{name}");
        }
    }

    #[test]
    fn unknown_is_error() {
        assert!(miner_by_name("bogus").is_err());
    }
}
