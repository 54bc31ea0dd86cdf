//! Property test: attribute indexes always agree with a linear scan
//! under arbitrary create / set / delete interleavings.

use proptest::prelude::*;

use mdm_model::schema::AttributeDef;
use mdm_model::value::DataType;
use mdm_model::{Database, EntityId, Value};

#[derive(Debug, Clone)]
enum Op {
    Create(i64),
    Set(usize, i64),
    Delete(usize),
    Probe(i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..8).prop_map(Op::Create),
        2 => ((0usize..64), (0i64..8)).prop_map(|(i, v)| Op::Set(i, v)),
        1 => (0usize..64).prop_map(Op::Delete),
        2 => (0i64..8).prop_map(Op::Probe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_agrees_with_scan(ops in proptest::collection::vec(op(), 1..120)) {
        let mut db = Database::new();
        db.define_entity(
            "E",
            vec![AttributeDef { name: "k".into(), ty: DataType::Integer }],
        )
        .unwrap();
        db.define_index("e_k", "E", "k").unwrap();
        let ty = db.schema().entity_type_id("E").unwrap();
        let mut live: Vec<EntityId> = Vec::new();
        for o in ops {
            match o {
                Op::Create(v) => {
                    let id = db.create_entity("E", &[("k", Value::Integer(v))]).unwrap();
                    live.push(id);
                }
                Op::Set(i, v) => {
                    if !live.is_empty() {
                        let id = live[i % live.len()];
                        db.set_attr(id, "k", Value::Integer(v)).unwrap();
                    }
                }
                Op::Delete(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let id = live.swap_remove(idx);
                        db.delete_entity(id).unwrap();
                    }
                }
                Op::Probe(v) => {
                    let value = Value::Integer(v);
                    let mut via_index: Vec<EntityId> = db
                        .attr_index_get(ty, 0, &value)
                        .expect("index exists")
                        .to_vec();
                    via_index.sort_unstable();
                    let mut via_scan: Vec<EntityId> = db
                        .instances_of("E")
                        .unwrap()
                        .iter()
                        .copied()
                        .filter(|&id| db.get_attr(id, "k").unwrap() == &value)
                        .collect();
                    via_scan.sort_unstable();
                    prop_assert_eq!(via_index, via_scan, "probe {}", v);
                }
            }
        }
        // Final full agreement check across every key.
        for v in 0..8i64 {
            let value = Value::Integer(v);
            let mut via_index: Vec<EntityId> =
                db.attr_index_get(ty, 0, &value).expect("index exists").to_vec();
            via_index.sort_unstable();
            let mut via_scan: Vec<EntityId> = db
                .instances_of("E")
                .unwrap()
                .iter()
                .copied()
                .filter(|&id| db.get_attr(id, "k").unwrap() == &value)
                .collect();
            via_scan.sort_unstable();
            prop_assert_eq!(via_index, via_scan, "final key {}", v);
        }
    }
}
