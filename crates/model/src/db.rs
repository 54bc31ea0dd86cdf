//! [`Database`]: the schema and its instances, with full validation.
//!
//! This is the typed, name-based API the query language and the music data
//! manager build on. Lower layers can reach the raw [`Schema`] and
//! [`InstanceStore`] for id-based access.

use crate::error::{ModelError, Result};
use crate::instance::{InstanceStore, RelInstanceId};
use crate::schema::{AttributeDef, OrderingId, RoleDef, Schema};
use crate::stats::AccessStats;
use crate::value::{EntityId, TypeId, Value};

/// An in-memory entity-relationship database with hierarchical ordering.
#[derive(Debug, Clone, Default)]
pub struct Database {
    schema: Schema,
    store: InstanceStore,
    /// Secondary attribute indexes: (type, attribute index) → sorted
    /// value-key → entity ids. Maintained by the typed mutators; callers
    /// using [`Database::store_mut`] must call
    /// [`Database::rebuild_attr_indexes`] afterwards.
    attr_indexes: std::collections::HashMap<(TypeId, usize), AttrIndex>,
    /// Named indexes from `define index` DDL: name → (entity type name,
    /// attribute name). Each definition is backed by an attribute index
    /// in `attr_indexes`; several names may share one backing index.
    index_defs: std::collections::BTreeMap<String, (String, String)>,
    /// Access statistics, maintained incrementally by the typed
    /// mutators and the index probe paths, and credited with tuple
    /// fetches by the QUEL executor. Derived data like the indexes:
    /// excluded from equality.
    stats: AccessStats,
}

type AttrIndex = std::collections::BTreeMap<Vec<u8>, Vec<EntityId>>;

/// Index *contents* are derived data: two databases are equal when their
/// schema, instances, and index definitions are.
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.schema == other.schema
            && self.store == other.store
            && self.index_defs == other.index_defs
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        let schema = Schema::new();
        let store = InstanceStore::new(&schema);
        Database {
            schema,
            store,
            attr_indexes: Default::default(),
            index_defs: Default::default(),
            stats: Default::default(),
        }
    }

    /// Builds a database from existing parts (used by persistence).
    /// Index definitions are re-registered afterwards via
    /// [`Database::define_index`]. Live tuple counts are recomputed
    /// from the store.
    pub fn from_parts(schema: Schema, store: InstanceStore) -> Database {
        let mut db = Database {
            schema,
            store,
            ..Database::default()
        };
        for def in db.schema.entity_types() {
            db.stats.add_type(def.attributes.len());
        }
        db.refresh_live_counts();
        db
    }

    /// The access statistics (per-type and per-index counters).
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Recomputes every entity type's live tuple count from the store.
    /// Called after bulk mutation through [`Database::store_mut`] and by
    /// persistence at load.
    pub fn refresh_live_counts(&self) {
        for ty in 0..self.schema.entity_types().len() as TypeId {
            self.stats
                .set_live(ty, self.store.instances_of(ty).len() as u64);
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The instance store.
    pub fn store(&self) -> &InstanceStore {
        &self.store
    }

    /// Mutable instance store (for bulk loaders; invariants are the
    /// caller's responsibility at this level).
    pub fn store_mut(&mut self) -> &mut InstanceStore {
        &mut self.store
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Defines an entity type.
    pub fn define_entity(&mut self, name: &str, attributes: Vec<AttributeDef>) -> Result<TypeId> {
        let attribute_count = attributes.len();
        let id = self.schema.define_entity(name, attributes)?;
        self.store.sync_with_schema(&self.schema);
        self.store.dirty.schema = true;
        self.stats.add_type(attribute_count);
        Ok(id)
    }

    /// Defines a relationship.
    pub fn define_relationship(
        &mut self,
        name: &str,
        roles: Vec<RoleDef>,
        attributes: Vec<AttributeDef>,
    ) -> Result<u32> {
        let id = self.schema.define_relationship(name, roles, attributes)?;
        self.store.sync_with_schema(&self.schema);
        self.store.dirty.schema = true;
        Ok(id)
    }

    /// Defines a hierarchical ordering.
    pub fn define_ordering(
        &mut self,
        name: Option<&str>,
        child_types: &[&str],
        parent_type: Option<&str>,
    ) -> Result<OrderingId> {
        let children = child_types
            .iter()
            .map(|n| self.schema.entity_type_id(n))
            .collect::<Result<Vec<_>>>()?;
        let parent = parent_type
            .map(|n| self.schema.entity_type_id(n))
            .transpose()?;
        let id = self.schema.define_ordering(name, children, parent)?;
        self.store.sync_with_schema(&self.schema);
        self.store.dirty.schema = true;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Entities
    // ------------------------------------------------------------------

    /// Creates an entity instance, checking attribute names and types.
    /// Unnamed attributes default to `Null`.
    pub fn create_entity(&mut self, type_name: &str, attrs: &[(&str, Value)]) -> Result<EntityId> {
        let ty = self.schema.entity_type_id(type_name)?;
        let mut values = vec![Value::Null; self.schema.entity_type(ty)?.attributes.len()];
        for (name, v) in attrs {
            values[self.check_attr(ty, name, v)?] = v.clone();
        }
        let id = self.store.create_entity(ty, values)?;
        self.index_entity(ty, id);
        self.stats.note_append(ty);
        Ok(id)
    }

    /// The check [`create_entity`](Self::create_entity) and
    /// [`set_attr`](Self::set_attr) make of one value: `attr` must be an
    /// attribute of entity type `ty` and `value` must conform to its
    /// declaration. Returns the attribute's index. A statement that
    /// writes many values runs it on all of them before its first write.
    pub fn check_attr(&self, ty: TypeId, attr: &str, value: &Value) -> Result<usize> {
        let def = self.schema.entity_type(ty)?;
        let idx = def
            .attribute_index(attr)
            .ok_or_else(|| ModelError::UnknownAttribute {
                entity: def.name.clone(),
                attribute: attr.to_string(),
            })?;
        let decl = &def.attributes[idx].ty;
        if !value.conforms_to(decl) {
            return Err(ModelError::TypeMismatch {
                expected: decl.name(),
                found: value.type_name().to_string(),
                context: format!("{}.{attr}", def.name),
            });
        }
        Ok(idx)
    }

    /// Reads an attribute by name. Counts nothing: the QUEL executor
    /// credits [`AccessStats`] with what a statement fetched when the
    /// statement ends.
    pub fn get_attr(&self, id: EntityId, attr: &str) -> Result<&Value> {
        let inst = self.store.entity(id)?;
        let def = self.schema.entity_type(inst.ty)?;
        let idx = def
            .attribute_index(attr)
            .ok_or_else(|| ModelError::UnknownAttribute {
                entity: def.name.clone(),
                attribute: attr.to_string(),
            })?;
        Ok(&inst.attrs[idx])
    }

    /// Writes an attribute by name, type-checked.
    pub fn set_attr(&mut self, id: EntityId, attr: &str, value: Value) -> Result<()> {
        let inst = self.store.entity(id)?;
        let idx = self.check_attr(inst.ty, attr, &value)?;
        let ty = inst.ty;
        let old_value = inst.attrs[idx].clone();
        if let Some(index) = self.attr_indexes.get_mut(&(ty, idx)) {
            let old_key = crate::encode::value_key(&old_value);
            if let Some(ids) = index.get_mut(&old_key) {
                ids.retain(|&e| e != id);
                if ids.is_empty() {
                    index.remove(&old_key);
                }
            }
            index
                .entry(crate::encode::value_key(&value))
                .or_default()
                .push(id);
            self.stats.note_index_writes(ty, idx, 2); // delete + insert
        }
        self.store.set_value(id, idx, value)?;
        self.stats.note_replace(ty);
        Ok(())
    }

    /// The entity type name of an instance.
    pub fn type_of(&self, id: EntityId) -> Result<&str> {
        let inst = self.store.entity(id)?;
        Ok(&self.schema.entity_type(inst.ty)?.name)
    }

    /// Ids of every instance of the named type, in creation order.
    pub fn instances_of(&self, type_name: &str) -> Result<&[EntityId]> {
        let ty = self.schema.entity_type_id(type_name)?;
        Ok(self.store.instances_of(ty))
    }

    /// Deletes an instance (see [`InstanceStore::delete_entities`]).
    pub fn delete_entity(&mut self, id: EntityId) -> Result<()> {
        self.delete_entities(&[id])
    }

    /// Deletes instances in one batch (see
    /// [`InstanceStore::delete_entities`]): each victim leaves its
    /// attribute indexes and counts as one delete, then one store call
    /// removes them all. An id with no instance fails the call before
    /// anything changes.
    pub fn delete_entities(&mut self, ids: &[EntityId]) -> Result<()> {
        if let Some(&id) = ids.iter().find(|&&id| !self.store.exists(id)) {
            return Err(ModelError::NoSuchInstance(id));
        }
        let mut victims = ids.to_vec();
        victims.sort_unstable();
        victims.dedup();
        let types: Vec<TypeId> = (victims.iter())
            .filter_map(|&id| self.unindex_entity(id))
            .collect();
        self.store.delete_entities(&self.schema, &victims)?;
        for ty in types {
            self.stats.note_delete(ty);
        }
        Ok(())
    }

    /// Places an entity as a committed row states it — created, or its
    /// attributes replaced (replication). Its row becomes dirty.
    pub(crate) fn put_entity(&mut self, ty: TypeId, id: EntityId, attrs: Vec<Value>) -> Result<()> {
        if self.store.exists(id) {
            self.unindex_entity(id);
            self.store.replace_row(id, attrs)?;
        } else {
            self.store.create_entity_with_id(id, ty, attrs)?;
        }
        self.index_entity(ty, id);
        Ok(())
    }

    /// Adopts a schema that extends this one (a replicated `define`):
    /// the definitions already here must come first and unchanged.
    pub(crate) fn adopt_schema(&mut self, schema: Schema) -> Result<()> {
        let old = &self.schema;
        let known = old.entity_types().len();
        if !(schema.entity_types().starts_with(old.entity_types())
            && schema.relationships().starts_with(old.relationships())
            && schema.orderings().starts_with(old.orderings()))
        {
            return Err(ModelError::Corrupt(
                "a replicated schema must extend the one in memory".into(),
            ));
        }
        for def in &schema.entity_types()[known..] {
            self.stats.add_type(def.attributes.len());
        }
        self.schema = schema;
        self.store.sync_with_schema(&self.schema);
        self.store.dirty.schema = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Attribute indexes
    // ------------------------------------------------------------------

    /// Takes `id` out of every attribute index over its type, returning
    /// the type (`None` if there is no such instance).
    fn unindex_entity(&mut self, id: EntityId) -> Option<TypeId> {
        let inst = self.store.entity(id).ok()?;
        let ty = inst.ty;
        let keys: Vec<(usize, Vec<u8>)> = inst
            .attrs
            .iter()
            .enumerate()
            .filter(|(i, _)| self.attr_indexes.contains_key(&(ty, *i)))
            .map(|(i, v)| (i, crate::encode::value_key(v)))
            .collect();
        for (i, key) in keys {
            if let Some(index) = self.attr_indexes.get_mut(&(ty, i)) {
                if let Some(ids) = index.get_mut(&key) {
                    ids.retain(|&e| e != id);
                    if ids.is_empty() {
                        index.remove(&key);
                    }
                }
                self.stats.note_index_writes(ty, i, 1);
            }
        }
        Some(ty)
    }

    fn index_entity(&mut self, ty: TypeId, id: EntityId) {
        // Collect indexed attribute positions for this type first to keep
        // the borrows disjoint.
        let positions: Vec<usize> = self
            .attr_indexes
            .keys()
            .filter(|(t, _)| *t == ty)
            .map(|&(_, i)| i)
            .collect();
        for i in positions {
            let key = {
                let inst = self.store.entity(id).expect("just created");
                crate::encode::value_key(&inst.attrs[i])
            };
            self.attr_indexes
                .get_mut(&(ty, i))
                .expect("position came from the map")
                .entry(key)
                .or_default()
                .push(id);
            self.stats.note_index_writes(ty, i, 1);
        }
    }

    /// Creates (or rebuilds) a secondary index over one attribute of an
    /// entity type. Queries with `var.attr = constant` qualifications use
    /// it automatically. Only a named index ([`Database::define_index`])
    /// builds one, so every index is listed, stored and reopened.
    fn create_attr_index(&mut self, type_name: &str, attr: &str) -> Result<()> {
        let ty = self.schema.entity_type_id(type_name)?;
        let def = self.schema.entity_type(ty)?;
        let idx = def
            .attribute_index(attr)
            .ok_or_else(|| ModelError::UnknownAttribute {
                entity: type_name.to_string(),
                attribute: attr.to_string(),
            })?;
        let index = self.build_attr_index(ty, idx);
        self.stats
            .note_index_writes(ty, idx, self.store.instances_of(ty).len() as u64);
        self.attr_indexes.insert((ty, idx), index);
        Ok(())
    }

    /// An index over attribute `idx` of `ty`, read from the type's rows in
    /// place.
    fn build_attr_index(&self, ty: TypeId, idx: usize) -> AttrIndex {
        let mut index = AttrIndex::new();
        for (id, attrs) in self.store.rows_of(ty) {
            let key = crate::encode::value_key(&attrs[idx]);
            index.entry(key).or_default().push(id);
        }
        index
    }

    /// Drops a secondary attribute index (no-op if absent).
    fn drop_attr_index(&mut self, type_name: &str, attr: &str) -> Result<()> {
        let ty = self.schema.entity_type_id(type_name)?;
        let def = self.schema.entity_type(ty)?;
        if let Some(idx) = def.attribute_index(attr) {
            self.attr_indexes.remove(&(ty, idx));
        }
        Ok(())
    }

    /// Index probe by type id and attribute position (the executor's fast
    /// path). `None` means "no index on that attribute"; an empty slice
    /// means "indexed, no matches".
    pub fn attr_index_get(
        &self,
        ty: TypeId,
        attr_idx: usize,
        value: &Value,
    ) -> Option<&[EntityId]> {
        let index = self.attr_indexes.get(&(ty, attr_idx))?;
        self.stats.note_eq_probe(ty, attr_idx);
        Some(
            index
                .get(&crate::encode::value_key(value))
                .map_or(&[], Vec::as_slice),
        )
    }

    /// True if an index exists on the attribute position of the type.
    pub fn has_attr_index(&self, ty: TypeId, attr_idx: usize) -> bool {
        self.attr_indexes.contains_key(&(ty, attr_idx))
    }

    /// Range probe by type id and attribute position: entity ids whose
    /// attribute value falls within the bounds, in value order. `None`
    /// means "no index on that attribute". Bounds use the same
    /// order-preserving key encoding as [`Value::total_cmp`].
    pub fn attr_index_range(
        &self,
        ty: TypeId,
        attr_idx: usize,
        lo: std::ops::Bound<&Value>,
        hi: std::ops::Bound<&Value>,
    ) -> Option<Vec<EntityId>> {
        use std::ops::Bound;
        let index = self.attr_indexes.get(&(ty, attr_idx))?;
        self.stats.note_range_probe(ty, attr_idx);
        let key = |b: Bound<&Value>| match b {
            Bound::Included(v) => Bound::Included(crate::encode::value_key(v)),
            Bound::Excluded(v) => Bound::Excluded(crate::encode::value_key(v)),
            Bound::Unbounded => Bound::Unbounded,
        };
        Some(
            index
                .range((key(lo), key(hi)))
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect(),
        )
    }

    /// Number of entities covered by the index on the attribute position,
    /// for planner cost estimates. `None` means "no index".
    pub fn attr_index_len(&self, ty: TypeId, attr_idx: usize) -> Option<usize> {
        let index = self.attr_indexes.get(&(ty, attr_idx))?;
        Some(index.values().map(Vec::len).sum())
    }

    /// Number of *distinct* attribute values in the index on the
    /// attribute position — the attribute's cardinality, exact because
    /// the index keys every live value. `None` means "no index".
    pub fn attr_index_distinct(&self, ty: TypeId, attr_idx: usize) -> Option<usize> {
        Some(self.attr_indexes.get(&(ty, attr_idx))?.len())
    }

    // ------------------------------------------------------------------
    // Named indexes (the `define index` DDL)
    // ------------------------------------------------------------------

    /// Defines a named index over one attribute of an entity type,
    /// building the backing attribute index immediately.
    pub fn define_index(&mut self, name: &str, type_name: &str, attr: &str) -> Result<()> {
        if self.index_defs.contains_key(name) {
            return Err(ModelError::DuplicateDefinition(name.to_string()));
        }
        self.create_attr_index(type_name, attr)?;
        self.index_defs
            .insert(name.to_string(), (type_name.to_string(), attr.to_string()));
        self.store.dirty.indexes = true;
        Ok(())
    }

    /// Destroys a named index. The backing attribute index is dropped
    /// only when no other name still refers to it.
    pub fn destroy_index(&mut self, name: &str) -> Result<()> {
        let Some((ty, attr)) = self.index_defs.remove(name) else {
            return Err(ModelError::UnknownIndex(name.to_string()));
        };
        self.store.dirty.indexes = true;
        if !self
            .index_defs
            .values()
            .any(|(t, a)| *t == ty && *a == attr)
        {
            self.drop_attr_index(&ty, &attr)?;
        }
        Ok(())
    }

    /// Named index definitions: name → (entity type name, attribute name).
    pub fn index_defs(&self) -> &std::collections::BTreeMap<String, (String, String)> {
        &self.index_defs
    }

    /// Rebuilds every attribute index from the instances. Call after bulk
    /// mutation through [`Database::store_mut`].
    pub fn rebuild_attr_indexes(&mut self) {
        let specs: Vec<(TypeId, usize)> = self.attr_indexes.keys().copied().collect();
        for (ty, idx) in specs {
            let index = self.build_attr_index(ty, idx);
            self.attr_indexes.insert((ty, idx), index);
        }
        self.refresh_live_counts();
    }

    // ------------------------------------------------------------------
    // Relationships
    // ------------------------------------------------------------------

    /// Creates a relationship instance, checking role names and entity
    /// types.
    pub fn relate(
        &mut self,
        rel_name: &str,
        roles: &[(&str, EntityId)],
        attrs: &[(&str, Value)],
    ) -> Result<RelInstanceId> {
        let rel = self.schema.relationship_id(rel_name)?;
        let def = self.schema.relationship(rel)?.clone();
        let mut entities = vec![0u64; def.roles.len()];
        let mut filled = vec![false; def.roles.len()];
        for (role, id) in roles {
            let idx = def
                .role_index(role)
                .ok_or_else(|| ModelError::UnknownAttribute {
                    entity: rel_name.to_string(),
                    attribute: role.to_string(),
                })?;
            let inst = self.store.entity(*id)?;
            if inst.ty != def.roles[idx].entity_type {
                return Err(ModelError::WrongEntityType {
                    expected: self
                        .schema
                        .entity_type(def.roles[idx].entity_type)?
                        .name
                        .clone(),
                    found: self.schema.entity_type(inst.ty)?.name.clone(),
                    context: format!("{rel_name}.{role}"),
                });
            }
            entities[idx] = *id;
            filled[idx] = true;
        }
        if let Some(missing) = filled.iter().position(|f| !f) {
            return Err(ModelError::InvalidSchema(format!(
                "relationship {rel_name} missing role {}",
                def.roles[missing].name
            )));
        }
        let mut values = vec![Value::Null; def.attributes.len()];
        for (name, v) in attrs {
            let idx = def
                .attribute_index(name)
                .ok_or_else(|| ModelError::UnknownAttribute {
                    entity: rel_name.to_string(),
                    attribute: name.to_string(),
                })?;
            if !v.conforms_to(&def.attributes[idx].ty) {
                return Err(ModelError::TypeMismatch {
                    expected: def.attributes[idx].ty.name(),
                    found: v.type_name().to_string(),
                    context: format!("{rel_name}.{name}"),
                });
            }
            values[idx] = v.clone();
        }
        Ok(self.store.relate(rel, entities, values))
    }

    /// Entity ids related to `id` through `rel_name`: every instance of the
    /// relationship in which `id` fills some role contributes the ids
    /// filling `role`.
    pub fn related(&self, rel_name: &str, id: EntityId, role: &str) -> Result<Vec<EntityId>> {
        let rel = self.schema.relationship_id(rel_name)?;
        let def = self.schema.relationship(rel)?;
        let ridx = def
            .role_index(role)
            .ok_or_else(|| ModelError::UnknownAttribute {
                entity: rel_name.to_string(),
                attribute: role.to_string(),
            })?;
        let mut out = Vec::new();
        for &ri in self.store.relationships_of(rel) {
            let r = self.store.relationship(ri)?;
            if r.entities.contains(&id) {
                out.push(r.entities[ridx]);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Hierarchical ordering
    // ------------------------------------------------------------------

    fn check_ordering_types(
        &self,
        ordering: OrderingId,
        parent: Option<EntityId>,
        child: Option<EntityId>,
    ) -> Result<()> {
        let def = self.schema.ordering(ordering)?;
        if let Some(c) = child {
            let inst = self.store.entity(c)?;
            if !def.children.contains(&inst.ty) {
                return Err(ModelError::WrongEntityType {
                    expected: def
                        .children
                        .iter()
                        .map(|&t| {
                            self.schema
                                .entity_type(t)
                                .map(|e| e.name.clone())
                                .unwrap_or_default()
                        })
                        .collect::<Vec<_>>()
                        .join(" | "),
                    found: self.schema.entity_type(inst.ty)?.name.clone(),
                    context: format!("child of {}", self.schema.ordering_display_name(ordering)),
                });
            }
        }
        match (def.parent, parent) {
            (Some(pt), Some(p)) => {
                let inst = self.store.entity(p)?;
                if inst.ty != pt {
                    return Err(ModelError::WrongEntityType {
                        expected: self.schema.entity_type(pt)?.name.clone(),
                        found: self.schema.entity_type(inst.ty)?.name.clone(),
                        context: format!(
                            "parent of {}",
                            self.schema.ordering_display_name(ordering)
                        ),
                    });
                }
            }
            (Some(_), None) => {
                return Err(ModelError::InvalidSchema(format!(
                    "ordering {} requires a parent entity",
                    self.schema.ordering_display_name(ordering)
                )))
            }
            (None, Some(_)) => {
                return Err(ModelError::InvalidSchema(format!(
                    "ordering {} has no parent type; use the global group",
                    self.schema.ordering_display_name(ordering)
                )))
            }
            (None, None) => {}
        }
        Ok(())
    }

    /// Resolves an ordering by name.
    pub fn ordering_id(&self, name: &str) -> Result<OrderingId> {
        self.schema.ordering_id(name)
    }

    /// Appends `child` under `parent` in the named ordering.
    pub fn ord_append(
        &mut self,
        ordering: &str,
        parent: Option<EntityId>,
        child: EntityId,
    ) -> Result<()> {
        let o = self.schema.ordering_id(ordering)?;
        self.check_ordering_types(o, parent, Some(child))?;
        self.store.ordering_append(&self.schema, o, parent, child)
    }

    /// Inserts `child` at `position` under `parent` in the named ordering.
    pub fn ord_insert(
        &mut self,
        ordering: &str,
        parent: Option<EntityId>,
        position: usize,
        child: EntityId,
    ) -> Result<()> {
        let o = self.schema.ordering_id(ordering)?;
        self.check_ordering_types(o, parent, Some(child))?;
        self.store
            .ordering_insert(&self.schema, o, parent, position, child)
    }

    /// Detaches `child` in the named ordering.
    pub fn ord_remove(&mut self, ordering: &str, child: EntityId) -> Result<()> {
        let o = self.schema.ordering_id(ordering)?;
        self.store.ordering_remove(&self.schema, o, child)
    }

    /// The ordered children of `parent` in the named ordering.
    pub fn ord_children(&self, ordering: &str, parent: Option<EntityId>) -> Result<Vec<EntityId>> {
        let o = self.schema.ordering_id(ordering)?;
        Ok(self.store.ordering_children(o, parent).to_vec())
    }

    /// The parent of `child` in the named ordering.
    pub fn ord_parent(&self, ordering: &str, child: EntityId) -> Result<Option<EntityId>> {
        let o = self.schema.ordering_id(ordering)?;
        self.store.ordering_parent(&self.schema, o, child)
    }

    /// `a before b` in the named ordering.
    pub fn before(&self, ordering: &str, a: EntityId, b: EntityId) -> Result<bool> {
        let o = self.schema.ordering_id(ordering)?;
        Ok(self.store.before(o, a, b))
    }

    /// `a after b` in the named ordering.
    pub fn after(&self, ordering: &str, a: EntityId, b: EntityId) -> Result<bool> {
        let o = self.schema.ordering_id(ordering)?;
        Ok(self.store.after(o, a, b))
    }

    /// `a under p` in the named ordering.
    pub fn under(&self, ordering: &str, a: EntityId, p: EntityId) -> Result<bool> {
        let o = self.schema.ordering_id(ordering)?;
        Ok(self.store.under(o, a, p))
    }

    /// The n-th (0-based) child under `parent` in the named ordering —
    /// "the third note in chord x" is `nth_child("note_in_chord", x, 2)`.
    pub fn nth_child(
        &self,
        ordering: &str,
        parent: Option<EntityId>,
        n: usize,
    ) -> Result<Option<EntityId>> {
        let o = self.schema.ordering_id(ordering)?;
        Ok(self.store.nth_child(o, parent, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn attr(name: &str, ty: DataType) -> AttributeDef {
        AttributeDef {
            name: name.into(),
            ty,
        }
    }

    fn music_db() -> Database {
        let mut db = Database::new();
        db.define_entity("CHORD", vec![attr("name", DataType::Integer)])
            .unwrap();
        db.define_entity(
            "NOTE",
            vec![
                attr("name", DataType::Integer),
                attr("pitch", DataType::String),
            ],
        )
        .unwrap();
        db.define_ordering(Some("note_in_chord"), &["NOTE"], Some("CHORD"))
            .unwrap();
        db
    }

    #[test]
    fn create_and_read_entity() {
        let mut db = music_db();
        let n = db
            .create_entity(
                "NOTE",
                &[
                    ("name", Value::Integer(1)),
                    ("pitch", Value::String("C4".into())),
                ],
            )
            .unwrap();
        assert_eq!(
            db.get_attr(n, "pitch").unwrap(),
            &Value::String("C4".into())
        );
        assert_eq!(db.get_attr(n, "name").unwrap(), &Value::Integer(1));
        assert_eq!(db.type_of(n).unwrap(), "NOTE");
    }

    #[test]
    fn missing_attrs_default_null() {
        let mut db = music_db();
        let n = db.create_entity("NOTE", &[]).unwrap();
        assert_eq!(db.get_attr(n, "pitch").unwrap(), &Value::Null);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut db = music_db();
        assert!(matches!(
            db.create_entity("NOTE", &[("pitch", Value::Integer(60))]),
            Err(ModelError::TypeMismatch { .. })
        ));
        let n = db.create_entity("NOTE", &[]).unwrap();
        assert!(matches!(
            db.set_attr(n, "name", Value::String("x".into())),
            Err(ModelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let mut db = music_db();
        assert!(matches!(
            db.create_entity("NOTE", &[("volume", Value::Integer(3))]),
            Err(ModelError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn named_index_define_destroy_and_range() {
        use std::ops::Bound;
        let mut db = music_db();
        let ids: Vec<EntityId> = (0..10)
            .map(|i| {
                db.create_entity("NOTE", &[("name", Value::Integer(i))])
                    .unwrap()
            })
            .collect();
        db.define_index("note_by_name", "NOTE", "name").unwrap();
        let ty = db.schema().entity_type_id("NOTE").unwrap();
        // Eq probe through the backing attribute index.
        assert_eq!(
            db.attr_index_get(ty, 0, &Value::Integer(3)).unwrap(),
            &[ids[3]]
        );
        // Range probe, inclusive and exclusive bounds.
        assert_eq!(
            db.attr_index_range(
                ty,
                0,
                Bound::Included(&Value::Integer(2)),
                Bound::Included(&Value::Integer(5))
            )
            .unwrap(),
            &ids[2..=5]
        );
        assert_eq!(
            db.attr_index_range(
                ty,
                0,
                Bound::Excluded(&Value::Integer(2)),
                Bound::Excluded(&Value::Integer(5))
            )
            .unwrap(),
            &ids[3..5]
        );
        assert_eq!(db.attr_index_len(ty, 0), Some(10));
        // A second name over the same attribute shares the backing index.
        db.define_index("note_by_name_2", "NOTE", "name").unwrap();
        db.destroy_index("note_by_name").unwrap();
        assert!(db.has_attr_index(ty, 0));
        db.destroy_index("note_by_name_2").unwrap();
        assert!(!db.has_attr_index(ty, 0));
        assert!(matches!(
            db.destroy_index("note_by_name"),
            Err(ModelError::UnknownIndex(_))
        ));
        assert!(matches!(
            db.define_index("dup", "NOTE", "name")
                .and_then(|()| db.define_index("dup", "NOTE", "pitch")),
            Err(ModelError::DuplicateDefinition(_))
        ));
    }

    #[test]
    fn access_stats_track_mutations_credits_and_probes() {
        let mut db = music_db();
        let note_ty = db.schema().entity_type_id("NOTE").unwrap();
        let ids: Vec<EntityId> = (0..5)
            .map(|i| {
                db.create_entity("NOTE", &[("name", Value::Integer(i % 3))])
                    .unwrap()
            })
            .collect();
        db.define_index("note_by_name", "NOTE", "name").unwrap();
        db.set_attr(ids[0], "name", Value::Integer(9)).unwrap();
        db.get_attr(ids[1], "name").unwrap();
        assert_eq!(
            db.stats().table(note_ty).heap_fetches,
            0,
            "reads count nothing"
        );
        db.stats().credit(note_ty, 2);
        db.attr_index_get(note_ty, 0, &Value::Integer(1)).unwrap();
        db.attr_index_range(
            note_ty,
            0,
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
        )
        .unwrap();
        db.delete_entity(ids[4]).unwrap();

        let t = db.stats().table(note_ty);
        assert_eq!(t.appends, 5);
        assert_eq!(t.live, 4);
        assert_eq!(t.replaces, 1);
        assert_eq!(t.deletes, 1);
        assert_eq!(t.heap_fetches, 2);
        let i = db.stats().index(note_ty, 0);
        assert_eq!(i.eq_probes, 1);
        assert_eq!(i.range_probes, 1);
        // 5 from the initial build, 2 from the re-key, 1 from the delete.
        assert_eq!(i.maintenance_writes, 8);
        // Cardinality: values now {9, 1, 2, 0} across four live notes.
        assert_eq!(db.attr_index_distinct(note_ty, 0), Some(4));
        assert_eq!(db.attr_index_distinct(note_ty, 1), None, "no index");
        // Cloning snapshots the stats; from_parts recomputes live.
        let cloned = db.clone();
        assert_eq!(cloned.stats().table(note_ty).appends, 5);
        let rebuilt = Database::from_parts(db.schema().clone(), db.store().clone());
        assert_eq!(rebuilt.stats().table(note_ty).live, 4);
        assert_eq!(rebuilt.stats().table(note_ty).appends, 0, "not carried");
        // A type defined after instances exist gets its cells at once.
        let late = db
            .define_entity("REST", vec![attr("beats", DataType::Integer)])
            .unwrap();
        let r = db.create_entity("REST", &[]).unwrap();
        db.define_index("rest_by_beats", "REST", "beats").unwrap();
        db.set_attr(r, "beats", Value::Integer(2)).unwrap();
        db.stats().credit(late, 3);
        let t = db.stats().table(late);
        assert_eq!(
            (t.live, t.appends, t.replaces, t.heap_fetches),
            (1, 1, 1, 3)
        );
        assert_eq!(db.stats().index(late, 0).maintenance_writes, 3);
        assert_eq!(
            db.stats().table(note_ty).appends,
            5,
            "and moves no other type's"
        );
    }

    #[test]
    fn paper_queries_third_note_in_chord() {
        // §5.4: "the third note in chord x".
        let mut db = music_db();
        let x = db
            .create_entity("CHORD", &[("name", Value::Integer(1))])
            .unwrap();
        let notes: Vec<EntityId> = (0..4)
            .map(|i| {
                db.create_entity("NOTE", &[("name", Value::Integer(i))])
                    .unwrap()
            })
            .collect();
        for &n in &notes {
            db.ord_append("note_in_chord", Some(x), n).unwrap();
        }
        assert_eq!(
            db.nth_child("note_in_chord", Some(x), 2).unwrap(),
            Some(notes[2])
        );
        assert!(db.before("note_in_chord", notes[0], notes[3]).unwrap());
        assert!(db.under("note_in_chord", notes[1], x).unwrap());
    }

    #[test]
    fn ordering_type_enforcement() {
        let mut db = music_db();
        let c1 = db.create_entity("CHORD", &[]).unwrap();
        let c2 = db.create_entity("CHORD", &[]).unwrap();
        // A chord is not a valid child of note_in_chord.
        assert!(matches!(
            db.ord_append("note_in_chord", Some(c1), c2),
            Err(ModelError::WrongEntityType { .. })
        ));
        // A note is not a valid parent.
        let n = db.create_entity("NOTE", &[]).unwrap();
        let n2 = db.create_entity("NOTE", &[]).unwrap();
        assert!(matches!(
            db.ord_append("note_in_chord", Some(n), n2),
            Err(ModelError::WrongEntityType { .. })
        ));
    }

    #[test]
    fn star_spangled_banner_query() {
        // §5.6's example: find the composers of a given composition via
        // the COMPOSER relationship.
        let mut db = Database::new();
        db.define_entity("PERSON", vec![attr("name", DataType::String)])
            .unwrap();
        db.define_entity("COMPOSITION", vec![attr("title", DataType::String)])
            .unwrap();
        db.define_relationship(
            "COMPOSER",
            vec![
                RoleDef {
                    name: "composer".into(),
                    entity_type: 0,
                },
                RoleDef {
                    name: "composition".into(),
                    entity_type: 1,
                },
            ],
            vec![],
        )
        .unwrap();
        let smith = db
            .create_entity(
                "PERSON",
                &[("name", Value::String("John Stafford Smith".into()))],
            )
            .unwrap();
        let banner = db
            .create_entity(
                "COMPOSITION",
                &[("title", Value::String("The Star Spangled Banner".into()))],
            )
            .unwrap();
        db.relate(
            "COMPOSER",
            &[("composer", smith), ("composition", banner)],
            &[],
        )
        .unwrap();
        let composers = db.related("COMPOSER", banner, "composer").unwrap();
        assert_eq!(composers, vec![smith]);
        assert_eq!(
            db.get_attr(composers[0], "name").unwrap(),
            &Value::String("John Stafford Smith".into())
        );
    }

    #[test]
    fn relate_checks_role_types_and_completeness() {
        let mut db = Database::new();
        db.define_entity("PERSON", vec![]).unwrap();
        db.define_entity("COMPOSITION", vec![]).unwrap();
        db.define_relationship(
            "COMPOSER",
            vec![
                RoleDef {
                    name: "composer".into(),
                    entity_type: 0,
                },
                RoleDef {
                    name: "composition".into(),
                    entity_type: 1,
                },
            ],
            vec![],
        )
        .unwrap();
        let p = db.create_entity("PERSON", &[]).unwrap();
        let c = db.create_entity("COMPOSITION", &[]).unwrap();
        // Wrong types for roles.
        assert!(db
            .relate("COMPOSER", &[("composer", c), ("composition", p)], &[])
            .is_err());
        // Missing role.
        assert!(db.relate("COMPOSER", &[("composer", p)], &[]).is_err());
        // Correct.
        assert!(db
            .relate("COMPOSER", &[("composer", p), ("composition", c)], &[])
            .is_ok());
    }

    #[test]
    fn entity_ref_attribute_one_to_n() {
        // §5.1: composition_date = DATE is an implicit 1:n relationship.
        let mut db = Database::new();
        db.define_entity(
            "DATE",
            vec![
                attr("day", DataType::Integer),
                attr("month", DataType::Integer),
                attr("year", DataType::Integer),
            ],
        )
        .unwrap();
        db.define_entity(
            "COMPOSITION",
            vec![
                attr("title", DataType::String),
                attr("composition_date", DataType::Entity(0)),
            ],
        )
        .unwrap();
        let date = db
            .create_entity(
                "DATE",
                &[
                    ("day", Value::Integer(1)),
                    ("month", Value::Integer(1)),
                    ("year", Value::Integer(1709)),
                ],
            )
            .unwrap();
        let comp = db
            .create_entity(
                "COMPOSITION",
                &[
                    ("title", Value::String("Fuge g-moll".into())),
                    ("composition_date", Value::Entity(date)),
                ],
            )
            .unwrap();
        let d = db
            .get_attr(comp, "composition_date")
            .unwrap()
            .as_entity()
            .unwrap();
        assert_eq!(db.get_attr(d, "year").unwrap(), &Value::Integer(1709));
    }
}
