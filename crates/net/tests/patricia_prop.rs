//! Property tests: the Patricia trie against a `BTreeMap` reference model,
//! including safe-iterator validity under interleaved mutation.
//!
//! Each model test runs twice: over prefixes drawn from the whole address
//! space, and over prefixes clustered in a few /16 blocks, which share the
//! trie's jump-index slots and so exercise its upkeep on every insert and
//! remove.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use proptest::prelude::*;
use xorp_net::{PatriciaTrie, Prefix};

type Net = Prefix<Ipv4Addr>;

fn arb_prefix() -> impl Strategy<Value = Net> {
    // Skew toward short masks so prefixes nest and collide often.
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::new(Ipv4Addr::from(bits), len).unwrap())
}

/// The /16 blocks `clustered_prefix` draws from: two neighbours, a third in
/// the same /8 and a fourth in another /8.
const BLOCKS: [u32; 4] = [0x0a01, 0x0a02, 0x0a81, 0xc0a8];

fn in_block(block: usize, low: u16, len: u8) -> Net {
    Prefix::new(Ipv4Addr::from(BLOCKS[block] << 16 | u32::from(low)), len).unwrap()
}

/// More-specifics (/16–/32) inside the `BLOCKS`, plus covering prefixes
/// (/0–/16) of them, so nodes of length ≤ 16 keep taking over and handing
/// back the jump slots above routes that stay.
fn clustered_prefix() -> impl Strategy<Value = Net> {
    prop_oneof![
        3 => (0..BLOCKS.len(), any::<u16>(), 16u8..=32)
            .prop_map(|(b, low, len)| in_block(b, low, len)),
        1 => (0..BLOCKS.len(), 0u8..=16).prop_map(|(b, len)| in_block(b, 0, len)),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Net, u32),
    Remove(Net),
    Lookup(u32),
}

/// Mutations and lookups over one prefix distribution; a lookup address
/// lies inside a prefix drawn from it.
fn arb_op<S: Strategy<Value = Net> + 'static>(prefix: impl Fn() -> S) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (prefix(), any::<u32>()).prop_map(|(p, v)| Op::Insert(p, v)),
        2 => prefix().prop_map(Op::Remove),
        1 => (prefix(), any::<u32>()).prop_map(|(p, host)| {
            Op::Lookup(u32::from(p.addr()) | host.checked_shr(p.len().into()).unwrap_or(0))
        }),
    ]
}

/// Longest-prefix match in the reference model.
fn model_longest_match(model: &BTreeMap<Net, u32>, addr: Ipv4Addr) -> Option<(Net, u32)> {
    model
        .iter()
        .filter(|(p, _)| p.contains_addr(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

fn items(trie: &PatriciaTrie<Ipv4Addr, u32>) -> Vec<(Net, u32)> {
    trie.iter().map(|(p, v)| (p, *v)).collect()
}

fn model_items(model: &BTreeMap<Net, u32>) -> Vec<(Net, u32)> {
    model.iter().map(|(p, v)| (*p, *v)).collect()
}

fn trie_of(entries: &BTreeMap<Net, u32>) -> PatriciaTrie<Ipv4Addr, u32> {
    let mut trie = PatriciaTrie::new();
    for (p, v) in entries {
        trie.insert(*p, *v);
    }
    trie
}

/// Insert/remove/lookup agree with a BTreeMap model, and full iteration
/// yields the model's sorted key order.
fn check_trie_matches_model(ops: Vec<Op>) {
    let mut trie: PatriciaTrie<Ipv4Addr, u32> = PatriciaTrie::new();
    let mut model: BTreeMap<Net, u32> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Insert(p, v) => {
                assert_eq!(trie.insert(p, v), model.insert(p, v));
            }
            Op::Remove(p) => {
                assert_eq!(trie.remove(&p), model.remove(&p));
            }
            Op::Lookup(addr_bits) => {
                let addr = Ipv4Addr::from(addr_bits);
                let got = trie.longest_match(addr).map(|(p, v)| (p, *v));
                assert_eq!(got, model_longest_match(&model, addr));
            }
        }
        assert_eq!(trie.len(), model.len());
    }
    assert_eq!(items(&trie), model_items(&model));
}

/// Subtree iteration equals model filtering.
fn check_subtree_matches_model(entries: BTreeMap<Net, u32>, root: Net) {
    let trie = trie_of(&entries);
    let got: Vec<Net> = trie.iter_subtree(&root).map(|(p, _)| p).collect();
    let want: Vec<Net> = entries
        .keys()
        .filter(|p| root.contains(p))
        .copied()
        .collect();
    assert_eq!(got, want);
}

/// best_covering returns the most specific strict ancestor.
fn check_covering_matches_model(entries: BTreeMap<Net, u32>, query: Net) {
    let trie = trie_of(&entries);
    let got = trie.best_covering(&query).map(|(p, _)| p);
    let want = entries
        .keys()
        .filter(|p| p.contains(&query) && p.len() < query.len())
        .max_by_key(|p| p.len())
        .copied();
    assert_eq!(got, want);
}

/// A safe iterator interleaved with arbitrary mutation:
/// - never yields a route that was deleted before being yielded and not
///   re-inserted,
/// - yields every route that was present at iterator creation and never
///   touched,
/// - yields keys in strictly increasing order,
/// - and deferred deletion leaves the trie equal to the model at the end.
fn check_safe_iter_under_mutation(initial: BTreeMap<Net, u32>, ops: Vec<Op>, step: usize) {
    let mut trie = trie_of(&initial);
    let mut model = initial.clone();
    let untouched: BTreeSet<Net> = {
        let mut s: BTreeSet<Net> = initial.keys().copied().collect();
        for op in &ops {
            match op {
                Op::Insert(p, _) | Op::Remove(p) => {
                    s.remove(p);
                }
                Op::Lookup(_) => {}
            }
        }
        s
    };
    let apply =
        |trie: &mut PatriciaTrie<Ipv4Addr, u32>, model: &mut BTreeMap<Net, u32>, op: Op| match op {
            Op::Insert(p, v) => {
                trie.insert(p, v);
                model.insert(p, v);
            }
            Op::Remove(p) => {
                trie.remove(&p);
                model.remove(&p);
            }
            Op::Lookup(_) => {}
        };

    let mut h = trie.iter_handle();
    let mut yielded: Vec<Net> = Vec::new();
    let mut op_iter = ops.into_iter();
    'walk: loop {
        // Advance `step` positions, then apply one mutation.
        for _ in 0..step {
            match trie.iter_next(&mut h) {
                Some((p, _)) => yielded.push(p),
                None => break 'walk,
            }
        }
        if let Some(op) = op_iter.next() {
            apply(&mut trie, &mut model, op);
        }
    }
    trie.iter_release(h);

    // Drain remaining mutations so trie == model at the end.
    for op in op_iter {
        apply(&mut trie, &mut model, op);
    }

    // Strictly increasing yield order (never revisits, never goes back).
    for w in yielded.windows(2) {
        assert!(w[0] < w[1], "yield order violated: {} then {}", w[0], w[1]);
    }
    // Every untouched initial route was yielded.
    for p in &untouched {
        assert!(yielded.contains(p), "untouched route {} skipped", p);
    }
    // Final state equals model.
    assert_eq!(items(&trie), model_items(&model));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trie_matches_model(ops in proptest::collection::vec(arb_op(arb_prefix), 1..200)) {
        check_trie_matches_model(ops);
    }

    #[test]
    fn trie_matches_model_in_shared_blocks(
        ops in proptest::collection::vec(arb_op(clustered_prefix), 1..200),
    ) {
        check_trie_matches_model(ops);
    }

    #[test]
    fn subtree_matches_model(
        entries in proptest::collection::btree_map(arb_prefix(), any::<u32>(), 0..60),
        root in arb_prefix(),
    ) {
        check_subtree_matches_model(entries, root);
    }

    #[test]
    fn subtree_matches_model_in_shared_blocks(
        entries in proptest::collection::btree_map(clustered_prefix(), any::<u32>(), 0..60),
        root in clustered_prefix(),
    ) {
        check_subtree_matches_model(entries, root);
    }

    #[test]
    fn covering_matches_model(
        entries in proptest::collection::btree_map(arb_prefix(), any::<u32>(), 0..60),
        query in arb_prefix(),
    ) {
        check_covering_matches_model(entries, query);
    }

    #[test]
    fn covering_matches_model_in_shared_blocks(
        entries in proptest::collection::btree_map(clustered_prefix(), any::<u32>(), 0..60),
        query in clustered_prefix(),
    ) {
        check_covering_matches_model(entries, query);
    }

    #[test]
    fn safe_iter_under_mutation(
        initial in proptest::collection::btree_map(arb_prefix(), any::<u32>(), 1..40),
        ops in proptest::collection::vec(arb_op(arb_prefix), 0..80),
        step in 1usize..5,
    ) {
        check_safe_iter_under_mutation(initial, ops, step);
    }

    #[test]
    fn safe_iter_under_mutation_in_shared_blocks(
        initial in proptest::collection::btree_map(clustered_prefix(), any::<u32>(), 1..40),
        ops in proptest::collection::vec(arb_op(clustered_prefix), 0..80),
        step in 1usize..5,
    ) {
        check_safe_iter_under_mutation(initial, ops, step);
    }

    /// Prefix arithmetic invariants used by the trie.
    #[test]
    fn prefix_invariants(p1 in arb_prefix(), p2 in arb_prefix()) {
        let common = p1.common_subnet(&p2);
        prop_assert!(common.contains(&p1));
        prop_assert!(common.contains(&p2));
        // Maximality: extending by one bit must lose one of them.
        if common.len() < 32 {
            let c0 = common.child(0).unwrap();
            let c1 = common.child(1).unwrap();
            prop_assert!(!(c0.contains(&p1) && c0.contains(&p2)));
            prop_assert!(!(c1.contains(&p1) && c1.contains(&p2)));
        }
        if let Some(parent) = p1.parent() {
            prop_assert!(parent.contains(&p1));
            prop_assert_eq!(parent.len() + 1, p1.len());
        }
        // Text round-trip.
        let s = p1.to_string();
        prop_assert_eq!(s.parse::<Net>().unwrap(), p1);
    }
}

/// One step of the multi-iterator model test.  Indices pick a stored route
/// or a live handle modulo the current count.
#[derive(Debug, Clone)]
enum IterOp {
    /// Insert at a drawn prefix (a replace when it is already stored).
    Insert(Net, u32),
    /// Insert over the `n`th stored route: a replace.
    Replace(usize, u32),
    /// Write through `get_mut` at the `n`th stored route.
    Write(usize, u32),
    /// Remove a drawn prefix, stored or not.
    Remove(Net),
    /// Remove the route handle `k` rests on, leaving a zombie behind it.
    RemoveUnder(usize),
    /// Open another handle, up to three.
    Open,
    Advance(usize),
    Release(usize),
}

fn arb_iter_op<S: Strategy<Value = Net> + 'static>(
    prefix: impl Fn() -> S,
) -> impl Strategy<Value = IterOp> {
    prop_oneof![
        3 => (prefix(), any::<u32>()).prop_map(|(p, v)| IterOp::Insert(p, v)),
        1 => (any::<usize>(), any::<u32>()).prop_map(|(n, v)| IterOp::Replace(n, v)),
        1 => (any::<usize>(), any::<u32>()).prop_map(|(n, v)| IterOp::Write(n, v)),
        2 => prefix().prop_map(IterOp::Remove),
        2 => any::<usize>().prop_map(IterOp::RemoveUnder),
        1 => Just(IterOp::Open),
        5 => any::<usize>().prop_map(IterOp::Advance),
        1 => any::<usize>().prop_map(IterOp::Release),
    ]
}

/// Where a safe handle stands, in model terms.
#[derive(Debug, Clone, Copy)]
enum Cursor {
    Fresh,
    At(Net),
    Done,
}

/// Up to three safe handles advance and release among inserts, replaces,
/// removes and `get_mut` writes.  Every advance yields exactly the model's
/// first route after the handle's last one (its first route if fresh, and
/// nothing ever again once exhausted), with the model's value; handles that
/// share a node, and the last of them to leave a deleted one, keep the
/// trie equal to the model.  Once every handle is released and the trie
/// cleared, only the root remains.
fn check_handles_match_model(initial: BTreeMap<Net, u32>, ops: Vec<IterOp>) {
    let mut trie = trie_of(&initial);
    let mut model = initial;
    let mut handles: Vec<(xorp_net::IterHandle, Cursor)> = Vec::new();
    let nth =
        |model: &BTreeMap<Net, u32>, n: usize| model.keys().nth(n % model.len().max(1)).copied();

    for op in ops {
        match op {
            IterOp::Insert(p, v) => {
                assert_eq!(trie.insert(p, v), model.insert(p, v));
            }
            IterOp::Replace(n, v) => {
                if let Some(p) = nth(&model, n) {
                    assert_eq!(trie.insert(p, v), model.insert(p, v));
                }
            }
            IterOp::Write(n, v) => {
                if let Some(p) = nth(&model, n) {
                    *trie.get_mut(&p).expect("stored route is writable") = v;
                    model.insert(p, v);
                }
            }
            IterOp::Remove(p) => {
                assert_eq!(trie.remove(&p), model.remove(&p));
            }
            IterOp::RemoveUnder(k) => {
                if let Some(&(_, Cursor::At(p))) = handles.get(k % handles.len().max(1)) {
                    assert_eq!(trie.remove(&p), model.remove(&p));
                }
            }
            IterOp::Open => {
                if handles.len() < 3 {
                    handles.push((trie.iter_handle(), Cursor::Fresh));
                }
            }
            IterOp::Advance(k) => {
                if handles.is_empty() {
                    continue;
                }
                let live = handles.len();
                let (h, cursor) = &mut handles[k % live];
                let want = match *cursor {
                    Cursor::Fresh => model.iter().next(),
                    Cursor::At(last) => model
                        .range((std::ops::Bound::Excluded(last), std::ops::Bound::Unbounded))
                        .next(),
                    Cursor::Done => None,
                }
                .map(|(p, v)| (*p, *v));
                let got = trie.iter_next(h).map(|(p, v)| (p, *v));
                assert_eq!(got, want, "handle {k} from {cursor:?}");
                *cursor = got.map_or(Cursor::Done, |(p, _)| Cursor::At(p));
            }
            IterOp::Release(k) => {
                if !handles.is_empty() {
                    let (h, _) = handles.remove(k % handles.len());
                    trie.iter_release(h);
                }
            }
        }
        assert_eq!(trie.len(), model.len());
    }
    for (h, _) in handles {
        trie.iter_release(h);
    }
    assert_eq!(items(&trie), model_items(&model));
    trie.clear();
    assert_eq!(trie.node_count(), 1);
    assert_eq!(trie.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn safe_handles_match_model(
        initial in proptest::collection::btree_map(arb_prefix(), any::<u32>(), 0..40),
        ops in proptest::collection::vec(arb_iter_op(arb_prefix), 1..200),
    ) {
        check_handles_match_model(initial, ops);
    }

    #[test]
    fn safe_handles_match_model_in_shared_blocks(
        initial in proptest::collection::btree_map(clustered_prefix(), any::<u32>(), 0..40),
        ops in proptest::collection::vec(arb_iter_op(clustered_prefix), 1..200),
    ) {
        check_handles_match_model(initial, ops);
    }
}
