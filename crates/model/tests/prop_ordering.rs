//! Property-based tests: the hierarchical-ordering instance store against
//! a naive reference model, plus encoding invariants.

use proptest::prelude::*;

use mdm_model::encode::{decode_value, encode_value, value_key};
use mdm_model::instance::InstanceStore;
use mdm_model::schema::Schema;
use mdm_model::value::{EntityId, Value};
use mdm_storage::codec::Reader;

/// Operations applied both to the store and to a Vec reference model.
#[derive(Debug, Clone)]
enum Op {
    /// Insert child (created fresh) at position `pos % (len+1)`.
    Insert { pos: usize },
    /// Remove the child at index `idx % len` (no-op when empty).
    Remove { idx: usize },
    /// Move the child at `from % len` to `to % len` (remove+reinsert).
    Move { from: usize, to: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..100).prop_map(|pos| Op::Insert { pos }),
        (0usize..100).prop_map(|idx| Op::Remove { idx }),
        ((0usize..100), (0usize..100)).prop_map(|(from, to)| Op::Move { from, to }),
    ]
}

fn setup() -> (Schema, InstanceStore, EntityId, u32) {
    let mut s = Schema::new();
    let chord = s.define_entity("CHORD", vec![]).unwrap();
    let note = s.define_entity("NOTE", vec![]).unwrap();
    let o = s
        .define_ordering(Some("o"), vec![note], Some(chord))
        .unwrap();
    let mut st = InstanceStore::new(&s);
    let parent = st.create_entity(chord, vec![]).unwrap();
    (s, st, parent, o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store's child list always matches a plain Vec subjected to the
    /// same operations, and every child's reported position is its index.
    #[test]
    fn ordering_matches_vec_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let (s, mut st, parent, o) = setup();
        let note_ty = s.entity_type_id("NOTE").unwrap();
        let mut model: Vec<EntityId> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { pos } => {
                    let child = st.create_entity(note_ty, vec![]).unwrap();
                    let at = pos % (model.len() + 1);
                    st.ordering_insert(&s, o, Some(parent), at, child).unwrap();
                    model.insert(at, child);
                }
                Op::Remove { idx } => {
                    if !model.is_empty() {
                        let at = idx % model.len();
                        let victim = model.remove(at);
                        st.ordering_remove(&s, o, victim).unwrap();
                    }
                }
                Op::Move { from, to } => {
                    if !model.is_empty() {
                        let f = from % model.len();
                        let child = model.remove(f);
                        st.ordering_remove(&s, o, child).unwrap();
                        let t = to % (model.len() + 1);
                        st.ordering_insert(&s, o, Some(parent), t, child).unwrap();
                        model.insert(t, child);
                    }
                }
            }
            prop_assert_eq!(st.ordering_children(o, Some(parent)), model.as_slice());
        }
        for (i, &c) in model.iter().enumerate() {
            prop_assert_eq!(st.ordering_position(&s, o, c).unwrap(), i);
            prop_assert_eq!(st.nth_child(o, Some(parent), i), Some(c));
        }
    }

    /// `before` is a strict total order within one parent: irreflexive,
    /// asymmetric, and for distinct siblings exactly one of
    /// before/after holds (trichotomy).
    #[test]
    fn before_trichotomy(n in 2usize..30, a_idx in 0usize..30, b_idx in 0usize..30) {
        let (s, mut st, parent, o) = setup();
        let note_ty = s.entity_type_id("NOTE").unwrap();
        let kids: Vec<EntityId> = (0..n)
            .map(|_| {
                let c = st.create_entity(note_ty, vec![]).unwrap();
                st.ordering_append(&s, o, Some(parent), c).unwrap();
                c
            })
            .collect();
        let a = kids[a_idx % n];
        let b = kids[b_idx % n];
        prop_assert!(!st.before(o, a, a));
        if a != b {
            prop_assert_ne!(st.before(o, a, b), st.before(o, b, a));
            prop_assert_eq!(st.before(o, a, b), st.after(o, b, a));
        }
    }

    /// In a recursive ordering built by random attachments, the cycle
    /// check never lets an instance become its own ancestor.
    #[test]
    fn no_p_edge_cycles(attachments in proptest::collection::vec((0usize..20, 0usize..20), 1..60)) {
        let mut s = Schema::new();
        let g = s.define_entity("G", vec![]).unwrap();
        let o = s.define_ordering(Some("rec"), vec![g], Some(g)).unwrap();
        let mut st = InstanceStore::new(&s);
        let nodes: Vec<EntityId> = (0..20).map(|_| st.create_entity(g, vec![]).unwrap()).collect();
        for (p, c) in attachments {
            let parent = nodes[p];
            let child = nodes[c];
            // May fail (cycle / already ordered); both are fine — the
            // invariant is that successes never create a cycle.
            let _ = st.ordering_append(&s, o, Some(parent), child);
        }
        for &n in &nodes {
            // Walk up; must terminate without revisiting n.
            let mut cursor = st.ordering_parent(&s, o, n).ok().flatten();
            let mut steps = 0;
            while let Some(p) = cursor {
                prop_assert_ne!(p, n, "cycle detected through {}", n);
                steps += 1;
                prop_assert!(steps <= nodes.len(), "ancestor chain too long");
                cursor = st.ordering_parent(&s, o, p).ok().flatten();
            }
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    // Integers stay within ±2^53, the documented exact range of the
    // shared numeric key space (see `encode::value_key`).
    const EXACT: i64 = 1 << 53;
    prop_oneof![
        Just(Value::Null),
        (-EXACT..=EXACT).prop_map(Value::Integer),
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,20}".prop_map(Value::String),
        any::<bool>().prop_map(Value::Boolean),
        proptest::collection::vec(any::<u8>(), 0..20).prop_map(Value::Bytes),
        (1u64..1000).prop_map(Value::Entity),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Values survive encode/decode exactly.
    #[test]
    fn value_codec_roundtrip(vals in proptest::collection::vec(value_strategy(), 0..20)) {
        let mut buf = Vec::new();
        for v in &vals {
            encode_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            prop_assert_eq!(&decode_value(&mut r).unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Index-key bytes order exactly like `total_cmp` (so B+tree range
    /// scans agree with query-level comparisons).
    #[test]
    fn value_key_is_order_preserving(a in value_strategy(), b in value_strategy()) {
        // Strings compare bytewise in keys but char-wise in total_cmp;
        // for the ASCII strategy used here the two coincide.
        prop_assert_eq!(a.total_cmp(&b), value_key(&a).cmp(&value_key(&b)));
    }
}
