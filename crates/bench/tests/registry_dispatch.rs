//! The registry's one mining call: every registered miner, under every
//! combination of budget, constraints (pushed or post-filtered), and
//! observability, reports exactly what its plain trait call reports,
//! constrained as asked.

use fim_bench::{all_miner_names, miner, MineCall, Miner};
use fim_core::{
    apply_constraints_owned, Budget, ConstraintSet, ItemOrder, MiningResult, RecodedDatabase,
    TransactionDatabase, TransactionOrder,
};
use fim_obs::{Obs, SpanRecorder};

fn paper_db() -> RecodedDatabase {
    let db = TransactionDatabase::from_named(&[
        vec!["a", "b", "c"],
        vec!["a", "d", "e"],
        vec!["b", "c", "d"],
        vec!["a", "b", "c", "d"],
        vec!["b", "c"],
        vec!["a", "b", "d"],
        vec!["d", "e"],
        vec!["c", "d", "e"],
    ]);
    RecodedDatabase::prepare(&db, 2, ItemOrder::default(), TransactionOrder::default())
}

fn run(
    m: &Miner,
    db: &RecodedDatabase,
    budget: Option<&Budget>,
    constraints: Option<(&ConstraintSet, bool)>,
    observed: bool,
) -> MiningResult {
    let mut obs = Obs::new();
    obs.spans = Some(SpanRecorder::new());
    let call = MineCall {
        budget,
        constraints,
        obs: observed.then_some(&mut obs),
    };
    let (outcome, _) = m.run(db, 2, call);
    assert!(!outcome.is_interrupted(), "{}", m.name());
    outcome.into_result().canonicalized()
}

#[test]
fn every_combination_matches_the_trait_call() {
    let db = paper_db();
    let mut cs = ConstraintSet::none();
    cs.min_size = 2;
    cs.min_area = 6;
    let budget = Budget::unlimited().with_max_closed_sets(1 << 20);
    for name in all_miner_names() {
        let m = miner(name).unwrap();
        let want = m.as_dyn().mine(&db, 2).canonicalized();
        let want_cs = apply_constraints_owned(want.clone(), &cs);
        assert!(!want_cs.is_empty() && want_cs.len() < want.len(), "{name}");
        for budget in [None, Some(&budget)] {
            for observed in [false, true] {
                let case = format!("{name} governed={} observed={observed}", budget.is_some());
                assert_eq!(run(&m, &db, budget, None, observed), want, "{case}");
                for push in [false, true] {
                    let got = run(&m, &db, budget, Some((&cs, push)), observed);
                    assert_eq!(got, want_cs, "{case} push={push}");
                }
            }
        }
    }
}

/// The miners with a counting entry point report their work on a plain
/// run; the post-filter counts the sets it drops.
#[test]
fn counting_miners_report_work() {
    let db = paper_db();
    let mut cs = ConstraintSet::none();
    cs.min_size = 2;
    for name in [
        "ista",
        "ista-par",
        "carpenter-lists",
        "carpenter-table",
        "eclat",
        "declat",
        "lcm",
    ] {
        let m = miner(name).unwrap();
        let (_, stats) = m.run(&db, 2, MineCall::default());
        assert!(stats.counters.iter_nonzero().next().is_some(), "{name}");
        let call = MineCall {
            constraints: Some((&cs, false)),
            ..MineCall::default()
        };
        let (_, stats) = m.run(&db, 2, call);
        assert!(
            stats.counters.get(fim_obs::Counter::ConstraintPrunes) > 0,
            "{name}"
        );
    }
}
