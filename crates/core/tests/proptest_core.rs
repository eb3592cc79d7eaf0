//! Property tests for the core substrate: item set algebra, closure and
//! Galois laws, representation consistency, and recoding invariants.

use fim_core::{
    closure, cover, galois, itemset, BitMatrix, FoundSet, ItemOrder, ItemSet, MiningResult,
    RecodedDatabase, SuffixCountMatrix, TidLists, TransactionDatabase, TransactionOrder,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn itemset_strategy(max_item: u32) -> impl Strategy<Value = ItemSet> {
    vec(0..max_item, 0..max_item as usize).prop_map(ItemSet::new)
}

fn db_strategy() -> impl Strategy<Value = RecodedDatabase> {
    (2u32..=10).prop_flat_map(|m| {
        vec(vec(0..m, 0..=m as usize), 1..12)
            .prop_map(move |txs| RecodedDatabase::from_dense(txs, m))
    })
}

/// A dense → raw table over `d` codes, one-to-one into a raw universe of
/// `d + extra` codes: shuffled by `seed` (`shape` 0), ascending (1), or
/// descending (2).
fn decode_table(d: u32, extra: u32, seed: u64, shape: u32) -> Vec<u32> {
    let mut raw: Vec<u32> = (0..d + extra).collect();
    let mut state = seed | 1;
    for i in (1..raw.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        raw.swap(i, (state % (i as u64 + 1)) as usize);
    }
    raw.truncate(d as usize);
    match shape {
        0 => {}
        1 => raw.sort_unstable(),
        _ => raw.sort_unstable_by(|a, b| b.cmp(a)),
    }
    raw
}

/// A table and a dense result over it whose sets are short (sorted by the
/// decoder) or long (sorted through its bitmap), over universes of every
/// size, most not a multiple of 64.
fn decode_case() -> impl Strategy<Value = (Vec<u32>, MiningResult)> {
    (1u32..700, 0u32..300, any::<u64>(), 0u32..3)
        .prop_flat_map(|(d, extra, seed, shape)| {
            let long = (d as usize).min(300);
            let set = prop_oneof![vec(0..d, 0..=4), vec(0..d, 0..=long)];
            (
                Just(decode_table(d, extra, seed, shape)),
                vec((set, any::<u32>()), 0..24),
            )
        })
        .prop_map(|(table, sets)| {
            let mut seen = std::collections::BTreeSet::new();
            let result = sets
                .into_iter()
                .map(|(items, supp)| FoundSet::new(ItemSet::new(items), supp))
                .filter(|s| seen.insert(s.items.clone()))
                .collect();
            (table, result)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_decode_matches_per_set_decode(case in decode_case()) {
        let (table, dense) = case;
        // the per-set decode the in-place kernel replaced: map, then sort
        let old: MiningResult = dense
            .sets
            .iter()
            .map(|s| FoundSet::new(ItemSet::new(s.items.iter().map(|i| table[i as usize]).collect()), s.support))
            .collect();
        let decoded = dense.clone().into_decoded(&table);
        prop_assert_eq!(&decoded, &old);
        prop_assert_eq!(dense.finish(&table), old.canonicalized());
    }

    #[test]
    fn itemset_lattice_laws(a in itemset_strategy(12), b in itemset_strategy(12), c in itemset_strategy(12)) {
        // commutativity
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&b), b.union(&a));
        // associativity
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        // absorption
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.intersect(&a.union(&b)), a.clone());
        // difference partition
        let inter = a.intersect(&b);
        let diff = a.minus(&b);
        prop_assert_eq!(inter.union(&diff), a.clone());
        prop_assert!(inter.intersect(&diff).is_empty());
        // subset coherence
        prop_assert!(inter.is_subset_of(&a) && inter.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn closure_operator_laws(db in db_strategy(), raw in vec(0u32..10, 0..6)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let c = closure(&db, &items);
        // extensive
        prop_assert!(items.is_subset_of(&c));
        // idempotent
        prop_assert_eq!(closure(&db, &c), c.clone());
        // monotone (against a random subset of items)
        let sub: ItemSet = items.iter().step_by(2).collect();
        prop_assert!(closure(&db, &sub).is_subset_of(&closure(&db, &items))
            || db.support(&sub) == 0 // both closures degenerate to item base
        );
    }

    #[test]
    fn galois_adjunction(db in db_strategy(), raw in vec(0u32..10, 0..5), tids_raw in vec(0u32..12, 0..5)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let mut tids: Vec<u32> = tids_raw
            .into_iter()
            .filter(|&t| (t as usize) < db.num_transactions())
            .collect();
        tids.sort_unstable();
        tids.dedup();
        // K ⊆ f(I) ⇔ I ⊆ g(K)
        let fi = galois::f(&db, &items);
        let lhs = tids.iter().all(|t| fi.contains(t));
        let rhs = items.is_subset_of(&galois::g(&db, &tids));
        prop_assert_eq!(lhs, rhs);
        // closure operators on both sides
        let ci = galois::item_closure(&db, &items);
        prop_assert!(items.is_subset_of(&ci));
        prop_assert_eq!(galois::item_closure(&db, &ci), ci);
        let ck = galois::tid_closure(&db, &tids);
        prop_assert!(tids.iter().all(|t| ck.contains(t)));
        prop_assert_eq!(galois::tid_closure(&db, &ck), ck);
    }

    #[test]
    fn representations_agree(db in db_strategy(), raw in vec(0u32..10, 1..4)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let lists = TidLists::from_database(&db);
        let bits = BitMatrix::from_database(&db);
        let matrix = SuffixCountMatrix::from_database(&db);
        // support via scan == support via tid lists
        prop_assert_eq!(db.support(&items), lists.support(&items));
        // per-item, per-transaction membership agreement
        for tid in 0..db.num_transactions() {
            for i in 0..db.num_items() {
                let in_tx = db.transaction(tid as u32).contains(&i);
                prop_assert_eq!(bits.get(tid, i as usize), in_tx);
                prop_assert_eq!(matrix.contains(tid as u32, i), in_tx);
            }
        }
        // suffix counts equal remaining() from tid lists
        for tid in 0..db.num_transactions() as u32 {
            for i in 0..db.num_items() {
                if matrix.contains(tid, i) {
                    prop_assert_eq!(matrix.entry(tid, i), lists.remaining(i, tid));
                }
            }
        }
    }

    #[test]
    fn recoding_preserves_supports(
        txs in vec(vec(0u32..9, 0..9usize), 1..10),
        minsupp in 1u32..4,
        io_pick in 0usize..3,
        to_pick in 0usize..3,
    ) {
        let db = TransactionDatabase::from_codes(txs);
        let io = ItemOrder::ALL[io_pick];
        let to = TransactionOrder::ALL[to_pick];
        let recoded = RecodedDatabase::prepare(&db, minsupp, io, to);
        // every surviving item's support is preserved and >= minsupp
        for new_code in 0..recoded.num_items() {
            let old = recoded.recode().item_to_old[new_code as usize];
            let raw_supp = db.support(&ItemSet::from([old]));
            prop_assert_eq!(raw_supp, recoded.item_supports()[new_code as usize]);
            prop_assert!(raw_supp >= minsupp);
        }
        // arbitrary non-empty set supports survive encode/decode (the empty
        // set is excluded: recoding drops empty transactions, which changes
        // only the empty set's support and is irrelevant to mining)
        let probe = ItemSet::new((0..db.num_items() as u32).step_by(2).collect());
        if !probe.is_empty() {
            if let Some(enc) = recoded.recode().encode_items(&probe) {
                prop_assert_eq!(recoded.support(&enc), db.support(&probe));
            }
        }
    }

    #[test]
    fn cover_is_sorted_and_support_consistent(db in db_strategy(), raw in vec(0u32..10, 0..4)) {
        let items = ItemSet::new(raw.into_iter().filter(|&i| i < db.num_items()).collect());
        let txs: Vec<ItemSet> = db
            .transactions()
            .iter()
            .map(|t| ItemSet::from_sorted(t.to_vec()))
            .collect();
        let cov = cover(&txs, &items);
        prop_assert!(cov.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(cov.len() as u32, db.support(&items));
        for &tid in &cov {
            prop_assert!(itemset::is_subset(items.as_slice(), db.transaction(tid)));
        }
    }
}
