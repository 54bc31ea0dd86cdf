//! Binary encodings: values, schemas, and index keys.

use mdm_storage::codec::{self, put_bytes, put_len, put_str, Reader};

use crate::error::Result;
use crate::schema::{AttributeDef, RoleDef, Schema};
use crate::value::{DataType, Value};

// ----------------------------------------------------------------------
// Values
// ----------------------------------------------------------------------

/// Appends one tagged value: the one `Value` encoding, of image rows,
/// log records and wire payloads alike.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Integer(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::String(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Boolean(b) => {
            out.push(4);
            out.push(*b as u8);
        }
        Value::Bytes(b) => {
            out.push(5);
            put_bytes(out, b);
        }
        Value::Entity(e) => {
            out.push(6);
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
}

/// Reads one tagged value.
pub fn decode_value(r: &mut Reader<'_>) -> codec::Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Integer(r.i64()?),
        2 => Value::Float(r.f64()?),
        3 => Value::String(r.string()?),
        4 => Value::Boolean(r.bool()?),
        5 => Value::Bytes(r.bytes()?),
        6 => Value::Entity(r.u64()?),
        t => return Err(codec::Error::Invalid("value tag", t.into())),
    })
}

/// Order-preserving key bytes for a value (the keys of the model's
/// attribute indexes):
/// a type-group prefix followed by an order-preserving payload, so that
/// keys sort like [`Value::total_cmp`].
///
/// Numbers (integers and floats) share one key space via `f64`, matching
/// `total_cmp`'s cross-type semantics; like `total_cmp`, ordering among
/// integers is therefore exact only within ±2⁵³ (far beyond anything a
/// musical attribute holds — MIDI keys, beat counts, years).
pub fn value_key(v: &Value) -> Vec<u8> {
    fn f64_key(x: f64) -> [u8; 8] {
        let bits = x.to_bits();
        // Standard total-order trick: flip all bits for negatives, flip
        // just the sign for positives.
        let mapped = if bits >> 63 == 1 {
            !bits
        } else {
            bits ^ (1 << 63)
        };
        mapped.to_be_bytes()
    }
    let mut out = Vec::with_capacity(10);
    match v {
        Value::Null => out.push(0),
        Value::Boolean(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Integer(i) => {
            out.push(2);
            out.extend_from_slice(&f64_key(*i as f64));
        }
        Value::Float(x) => {
            out.push(2);
            out.extend_from_slice(&f64_key(*x));
        }
        Value::String(s) => {
            out.push(3);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(4);
            out.extend_from_slice(b);
        }
        Value::Entity(e) => {
            out.push(5);
            out.extend_from_slice(&e.to_be_bytes());
        }
    }
    out
}

// ----------------------------------------------------------------------
// Data types and schemas
// ----------------------------------------------------------------------

fn encode_datatype(out: &mut Vec<u8>, t: &DataType) {
    match t {
        DataType::Integer => out.push(0),
        DataType::Float => out.push(1),
        DataType::String => out.push(2),
        DataType::Boolean => out.push(3),
        DataType::Bytes => out.push(4),
        DataType::Entity(id) => {
            out.push(5);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

fn decode_datatype(r: &mut Reader<'_>) -> codec::Result<DataType> {
    Ok(match r.u8()? {
        0 => DataType::Integer,
        1 => DataType::Float,
        2 => DataType::String,
        3 => DataType::Boolean,
        4 => DataType::Bytes,
        5 => DataType::Entity(r.u32()?),
        t => return Err(codec::Error::Invalid("datatype tag", t.into())),
    })
}

fn encode_attrs(out: &mut Vec<u8>, attrs: &[AttributeDef]) {
    put_len(out, attrs.len());
    for a in attrs {
        put_str(out, &a.name);
        encode_datatype(out, &a.ty);
    }
}

fn decode_attrs(r: &mut Reader<'_>) -> codec::Result<Vec<AttributeDef>> {
    r.list(5, |r| {
        Ok(AttributeDef {
            name: r.string()?,
            ty: decode_datatype(r)?,
        })
    })
}

/// Serializes a schema.
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    let ents = schema.entity_types();
    put_len(&mut out, ents.len());
    for e in ents {
        put_str(&mut out, &e.name);
        encode_attrs(&mut out, &e.attributes);
    }
    let rels = schema.relationships();
    put_len(&mut out, rels.len());
    for rdef in rels {
        put_str(&mut out, &rdef.name);
        put_len(&mut out, rdef.roles.len());
        for role in &rdef.roles {
            put_str(&mut out, &role.name);
            out.extend_from_slice(&role.entity_type.to_le_bytes());
        }
        encode_attrs(&mut out, &rdef.attributes);
    }
    let ords = schema.orderings();
    put_len(&mut out, ords.len());
    for o in ords {
        match &o.name {
            Some(n) => {
                out.push(1);
                put_str(&mut out, n);
            }
            None => out.push(0),
        }
        put_len(&mut out, o.children.len());
        for &c in &o.children {
            out.extend_from_slice(&c.to_le_bytes());
        }
        match o.parent {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.to_le_bytes());
            }
            None => out.push(0),
        }
    }
    out
}

/// Deserializes a schema, re-running the definitions so all invariants are
/// re-validated.
pub fn decode_schema(buf: &[u8]) -> Result<Schema> {
    let mut r = Reader::new(buf);
    let mut schema = Schema::new();
    let nents = r.u32()?;
    for _ in 0..nents {
        let name = r.string()?;
        let attrs = decode_attrs(&mut r)?;
        schema.define_entity(&name, attrs)?;
    }
    let nrels = r.u32()?;
    for _ in 0..nrels {
        let name = r.string()?;
        let roles = r.list(8, |r| {
            Ok(RoleDef {
                name: r.string()?,
                entity_type: r.u32()?,
            })
        })?;
        let attrs = decode_attrs(&mut r)?;
        schema.define_relationship(&name, roles, attrs)?;
    }
    let nords = r.u32()?;
    for _ in 0..nords {
        let name = if r.u8()? == 1 {
            Some(r.string()?)
        } else {
            None
        };
        let children = r.list(4, Reader::u32)?;
        let parent = if r.u8()? == 1 { Some(r.u32()?) } else { None };
        schema.define_ordering(name.as_deref(), children, parent)?;
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeDef;

    #[test]
    fn value_roundtrip_all_variants() {
        let vals = vec![
            Value::Null,
            Value::Integer(-42),
            Value::Float(2.5),
            Value::String("Fuge g-moll".into()),
            Value::Boolean(true),
            Value::Bytes(vec![1, 2, 3]),
            Value::Entity(99),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            encode_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            assert_eq!(&decode_value(&mut r).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn value_key_order_matches_total_cmp() {
        let vals = vec![
            Value::Null,
            Value::Boolean(false),
            Value::Boolean(true),
            Value::Integer(-10),
            Value::Float(-1.5),
            Value::Integer(0),
            Value::Float(0.5),
            Value::Integer(3),
            Value::Float(1e9),
            Value::String("a".into()),
            Value::String("ab".into()),
            Value::String("b".into()),
            Value::Entity(1),
            Value::Entity(2),
        ];
        for a in &vals {
            for b in &vals {
                let cmp_vals = a.total_cmp(b);
                let cmp_keys = value_key(a).cmp(&value_key(b));
                assert_eq!(cmp_vals, cmp_keys, "mismatch for {a} vs {b}");
            }
        }
    }

    #[test]
    fn schema_roundtrip() {
        let mut s = Schema::new();
        let chord = s
            .define_entity(
                "CHORD",
                vec![AttributeDef {
                    name: "n".into(),
                    ty: DataType::Integer,
                }],
            )
            .unwrap();
        let note = s
            .define_entity(
                "NOTE",
                vec![
                    AttributeDef {
                        name: "n".into(),
                        ty: DataType::Integer,
                    },
                    AttributeDef {
                        name: "chord".into(),
                        ty: DataType::Entity(chord),
                    },
                ],
            )
            .unwrap();
        s.define_relationship(
            "PART_OF",
            vec![
                RoleDef {
                    name: "note".into(),
                    entity_type: note,
                },
                RoleDef {
                    name: "chord".into(),
                    entity_type: chord,
                },
            ],
            vec![AttributeDef {
                name: "weight".into(),
                ty: DataType::Float,
            }],
        )
        .unwrap();
        s.define_ordering(Some("note_in_chord"), vec![note], Some(chord))
            .unwrap();
        s.define_ordering(None, vec![chord], None).unwrap();
        let bytes = encode_schema(&s);
        let back = decode_schema(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_record_is_corrupt() {
        let mut buf = Vec::new();
        encode_value(&mut buf, &Value::String("hello".into()));
        buf.truncate(buf.len() - 2);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_value(&mut r), Err(codec::Error::Truncated));
        // A `Boolean` is 0 or 1: no other byte reads as `true`.
        let mut r = Reader::new(&[4, 2]);
        let bad_bool = codec::Error::Invalid("bool byte", 2);
        assert_eq!(decode_value(&mut r), Err(bad_bool));
    }
}
