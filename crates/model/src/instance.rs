//! Entity instances, relationship instances, and instance graphs.
//!
//! An *instance graph* (§5.3) relates a parent entity to an ordered set of
//! children: P-edges connect each child to its parent, S-edges connect
//! consecutive siblings, and every child occupies an ordinal position. The
//! store represents each `(ordering, parent)` group as a vector of child
//! ids (so S-edge cycles are unrepresentable by construction) and enforces
//! the §5.5 restriction that P-edges never form a cycle: an instance can
//! never be "part of itself".
//!
//! Each entity type's instances live together in one row table: a
//! fixed-width row of attribute values per instance, laid end to end, so
//! a scan reads them in place (see `DESIGN.md`, "Where an instance
//! lives").
//!
//! The store also keeps what persistence needs to write only what
//! changed: every entity, P-edge and relationship instance carries the
//! `Loc` of its row in the storage engine, and every mutation — through
//! [`crate::Database`] or straight through this store — enters the key of
//! each row it changes into a dirty set (`RowKey`). `persist::commit`
//! writes the current state of each dirty key and clears the set.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use crate::error::{ModelError, Result};
use crate::schema::{OrderingId, RelTypeId, Schema};
use crate::value::{EntityId, TypeId, Value};

/// Identifies a relationship instance.
pub type RelInstanceId = u64;

/// Where an image row sits in the storage engine: a packed record id,
/// `0` for a row never committed. A locator says where a row is, not
/// what it holds, so every locator compares equal and the derived
/// equality of the structures carrying one compares content only.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Loc(pub(crate) u64);

impl Loc {
    /// No row on disk.
    pub(crate) const NONE: Loc = Loc(0);

    /// The packed record id, if the row was ever committed.
    pub(crate) fn get(self) -> Option<u64> {
        (self.0 != 0).then_some(self.0)
    }
}

impl PartialEq for Loc {
    fn eq(&self, _: &Loc) -> bool {
        true
    }
}

/// The key of one image row: what a dirty-set entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum RowKey {
    /// An entity's row, in its type's table.
    Entity(TypeId, EntityId),
    /// A child's P-edge in an ordering: parent and position.
    Edge(OrderingId, EntityId),
    /// A relationship instance's row.
    Rel(RelInstanceId),
}

/// Row keys changed since the last commit point, plus flags for the two
/// definition images. A key carries the locator of its row when the
/// in-memory holder of that locator is gone (the entity, edge or
/// relationship was removed), [`Loc::NONE`] otherwise. A set kept
/// lazily: marks are appended, and duplicates merged whenever the list
/// doubles and before a commit reads it, so marking costs a push.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dirty {
    rows: Vec<(RowKey, Loc)>,
    /// Length after the last merge.
    merged: usize,
    pub(crate) schema: bool,
    pub(crate) indexes: bool,
}

impl Dirty {
    /// True when nothing changed since the last commit point.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty() && !self.schema && !self.indexes
    }

    /// Sorts the keys and merges duplicates, keeping a known locator.
    pub(crate) fn merge(&mut self) {
        self.rows.sort_by_key(|&(key, _)| key);
        self.rows.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same && kept.1.get().is_none() {
                kept.1 = later.1;
            }
            same
        });
        self.merged = self.rows.len();
    }

    /// The dirty keys, each with its locator: distinct and in key order
    /// right after a [`Dirty::merge`].
    pub(crate) fn rows(&self) -> &[(RowKey, Loc)] {
        &self.rows
    }
}

/// One entity instance, borrowed from its type's row table: its type and
/// attribute values (positionally matching the type's attribute
/// definitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instance<'a> {
    /// The entity type.
    pub ty: TypeId,
    /// Attribute values, indexed like the type's `attributes`.
    pub attrs: &'a [Value],
}

/// One entity type's instances: `width` values per row, rows end to
/// end. A deleted row is cleared and goes on the free list, and the
/// type's next instance takes it, so no other row ever moves. Rows are
/// in id order until one is reused (or a bulk loader creates an id
/// below the type's largest).
#[derive(Debug, Clone, Default)]
struct Table {
    /// The type's attribute count: the values in every row.
    width: usize,
    values: Vec<Value>,
    /// Each row's entity id, `0` for a free row (ids start at 1).
    owners: Vec<EntityId>,
    locs: Vec<Loc>,
    free: Vec<u32>,
}

impl Table {
    fn new(width: usize) -> Table {
        Table {
            width,
            ..Table::default()
        }
    }

    /// Refuses a row that is not `width` values long.
    fn check(&self, ty: TypeId, attrs: &[Value]) -> Result<()> {
        if attrs.len() == self.width {
            return Ok(());
        }
        Err(ModelError::RowWidth {
            ty,
            expected: self.width,
            found: attrs.len(),
        })
    }

    fn row(&self, row: u32) -> &[Value] {
        let at = row as usize * self.width;
        &self.values[at..at + self.width]
    }

    fn row_mut(&mut self, row: u32) -> &mut [Value] {
        let at = row as usize * self.width;
        &mut self.values[at..at + self.width]
    }

    /// The live rows as `(id, values)`, in row order.
    fn rows(&self) -> impl Iterator<Item = (EntityId, &[Value])> {
        (self.owners.iter().enumerate())
            .filter(|&(_, &id)| id != 0)
            .map(|(row, &id)| (id, self.row(row as u32)))
    }

    /// Stores `attrs` (exactly `width` values) in a free row or a new
    /// one, returning the row.
    fn insert(&mut self, id: EntityId, attrs: Vec<Value>, loc: Loc) -> u32 {
        let Some(row) = self.free.pop() else {
            self.values.extend(attrs);
            self.owners.push(id);
            self.locs.push(loc);
            return u32::try_from(self.owners.len() - 1).expect("under 2^32 rows per type");
        };
        for (slot, v) in self.row_mut(row).iter_mut().zip(attrs) {
            *slot = v;
        }
        self.owners[row as usize] = id;
        self.locs[row as usize] = loc;
        row
    }

    /// Frees `row`, dropping its values; returns its locator.
    fn remove(&mut self, row: u32) -> Loc {
        self.row_mut(row).fill(Value::Null);
        self.owners[row as usize] = 0;
        self.free.push(row);
        std::mem::take(&mut self.locs[row as usize])
    }
}

/// One relationship instance: entity ids filling each role, plus
/// relationship attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct RelInstance {
    /// The relationship type.
    pub rel: RelTypeId,
    /// Entity ids, indexed like the relationship's `roles`.
    pub entities: Vec<EntityId>,
    /// Attribute values, indexed like the relationship's `attributes`.
    pub attrs: Vec<Value>,
    pub(crate) loc: Loc,
}

/// A P-edge: the parent group a child belongs to (`0` for the global
/// group — entity ids start at 1), and its row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PEdge {
    parent: EntityId,
    loc: Loc,
}

impl PEdge {
    fn new(parent: Option<EntityId>, loc: Loc) -> PEdge {
        PEdge {
            parent: parent.unwrap_or(0),
            loc,
        }
    }

    fn parent(self) -> Option<EntityId> {
        (self.parent != 0).then_some(self.parent)
    }
}

/// Per-ordering instance graph state.
#[derive(Debug, Clone, Default, PartialEq)]
struct OrderingState {
    /// Ordered children per parent (`None` = the global parent for
    /// orderings defined without an `under` clause).
    children: HashMap<Option<EntityId>, Vec<EntityId>>,
    /// P-edges: child → parent group it belongs to.
    parent_of: HashMap<EntityId, PEdge>,
}

/// Moves the last id of an otherwise ascending list back to its place:
/// nothing moves when it is the largest, the usual case.
fn settle_last(ids: &mut [u64]) {
    if let Some((&id, rest)) = ids.split_last() {
        let at = rest.partition_point(|&e| e < id);
        ids[at..].rotate_right(1);
    }
}

/// Removes each `(list, id)` of `gone` from `lists[list]`, whose ids
/// ascend, in one merge pass per touched list: each victim is found by a
/// binary search past the previous one, and the survivors between two
/// victims move down as one block, so nothing before the first victim
/// is touched. Sorts `gone`, so its runs then name one list each.
fn remove_from_lists(lists: &mut [Vec<u64>], gone: &mut [(u32, u64)]) {
    gone.sort_unstable();
    for run in gone.chunk_by(|a, b| a.0 == b.0) {
        let Some(ids) = lists.get_mut(run[0].0 as usize) else {
            continue;
        };
        // `ids[..kept]` is final; `ids[at..]` is still to be merged.
        let (mut kept, mut at) = (0, 0);
        for &(_, id) in run {
            let next = at + ids[at..].partition_point(|&e| e < id);
            if ids.get(next) != Some(&id) {
                continue;
            }
            if kept != at {
                ids.copy_within(at..next, kept);
            }
            kept += next - at;
            at = next + 1;
        }
        if kept != at {
            ids.copy_within(at.., kept);
        }
        ids.truncate(kept + (ids.len() - at));
    }
}

/// The in-memory instance store for one database.
#[derive(Debug, Clone, Default)]
pub struct InstanceStore {
    next_entity: EntityId,
    next_rel: RelInstanceId,
    /// Each instance's type and row in that type's table.
    instances: HashMap<EntityId, (TypeId, u32)>,
    /// The row table of each entity type.
    tables: Vec<Table>,
    /// Instances per type, ascending by id (deterministic iteration).
    by_type: Vec<Vec<EntityId>>,
    rel_instances: HashMap<RelInstanceId, RelInstance>,
    /// Relationship instances per relationship type, ascending by id.
    rels_by_type: Vec<Vec<RelInstanceId>>,
    orderings: Vec<OrderingState>,
    pub(crate) dirty: Dirty,
}

/// Equality is content: instances, relationship instances and orderings,
/// in creation order. Not the id allocators — a load restarts them just
/// above the highest live id — and not the persistence bookkeeping.
/// Rows are compared by id, not by position: a reload places them in
/// id order, while a live table may have reused rows out of it.
impl PartialEq for InstanceStore {
    fn eq(&self, other: &InstanceStore) -> bool {
        self.by_type == other.by_type
            && (self.by_type.iter().flatten())
                .all(|&id| self.entity(id).ok() == other.entity(id).ok())
            && self.rel_instances == other.rel_instances
            && self.rels_by_type == other.rels_by_type
            && self.orderings == other.orderings
    }
}

impl InstanceStore {
    /// Creates an empty store shaped for `schema`.
    pub fn new(schema: &Schema) -> InstanceStore {
        let mut store = InstanceStore {
            next_entity: 1,
            next_rel: 1,
            ..InstanceStore::default()
        };
        store.sync_with_schema(schema);
        store
    }

    /// What changed since the last commit point.
    pub(crate) fn dirty(&self) -> &Dirty {
        &self.dirty
    }

    /// Enters `key` into the dirty set. `gone` is the locator of a row
    /// whose in-memory holder was just removed; a later re-creation of
    /// the same key (a child re-attached) then updates that row in place.
    fn mark(&mut self, key: RowKey, gone: Loc) {
        let dirty = &mut self.dirty;
        dirty.rows.push((key, gone));
        if dirty.rows.len() >= 2 * dirty.merged.max(1 << 14) {
            dirty.merge();
        }
    }

    /// Marks the P-edges of `kids` dirty: their positions moved.
    fn mark_shifted(&mut self, ordering: OrderingId, kids: &[EntityId]) {
        for &k in kids {
            self.mark(RowKey::Edge(ordering, k), Loc::NONE);
        }
    }

    /// Records where a commit put each written row, and clears the dirty
    /// set: memory and disk agree again.
    pub(crate) fn settle(&mut self, placed: Vec<(RowKey, Loc)>) {
        for (key, loc) in placed {
            self.set_loc(key, loc);
        }
        self.dirty = Dirty::default();
    }

    /// Points the in-memory holder of `key`, if present, at `loc`.
    pub(crate) fn set_loc(&mut self, key: RowKey, loc: Loc) {
        let held = match key {
            RowKey::Entity(_, id) => (self.instances.get(&id))
                .map(|&(ty, row)| &mut self.tables[ty as usize].locs[row as usize]),
            RowKey::Edge(o, child) => self.orderings[o as usize]
                .parent_of
                .get_mut(&child)
                .map(|e| &mut e.loc),
            RowKey::Rel(id) => self.rel_instances.get_mut(&id).map(|r| &mut r.loc),
        };
        if let Some(held) = held {
            *held = loc;
        }
    }

    /// The locator of the in-memory holder of `key`, or `None` if the key
    /// has no holder (its entity, edge or relationship was removed).
    pub(crate) fn loc_of(&self, key: RowKey) -> Option<Loc> {
        match key {
            RowKey::Entity(_, id) => (self.instances.get(&id))
                .map(|&(ty, row)| self.tables[ty as usize].locs[row as usize]),
            RowKey::Edge(o, child) => self.orderings[o as usize]
                .parent_of
                .get(&child)
                .map(|e| e.loc),
            RowKey::Rel(id) => self.rel_instances.get(&id).map(|r| r.loc),
        }
    }

    /// A P-edge's parent and position, if `child` is in the ordering.
    pub(crate) fn edge(
        &self,
        ordering: OrderingId,
        child: EntityId,
    ) -> Option<(Option<EntityId>, usize)> {
        let state = self.state(ordering);
        let parent = state.parent_of.get(&child)?.parent();
        let pos = state
            .children
            .get(&parent)?
            .iter()
            .position(|&e| e == child)?;
        Some((parent, pos))
    }

    /// Grows internal tables after new schema definitions (the schema can
    /// be extended while instances exist).
    pub fn sync_with_schema(&mut self, schema: &Schema) {
        let types = schema.entity_types();
        for def in &types[self.tables.len().min(types.len())..] {
            self.tables.push(Table::new(def.attributes.len()));
        }
        self.by_type.resize(types.len(), Vec::new());
        self.rels_by_type
            .resize(schema.relationships().len(), Vec::new());
        self.orderings
            .resize(schema.orderings().len(), OrderingState::default());
    }

    // ------------------------------------------------------------------
    // Entities
    // ------------------------------------------------------------------

    /// Creates an instance of `ty` with the given attribute values
    /// (already positionally arranged and type-checked by the caller).
    /// Fails, changing nothing, on an unknown type or a row whose width
    /// is not the type's attribute count.
    pub fn create_entity(&mut self, ty: TypeId, attrs: Vec<Value>) -> Result<EntityId> {
        let id = self.next_entity;
        self.create_entity_with_id(id, ty, attrs)?;
        Ok(id)
    }

    /// Creates an entity with a specific id (bulk loaders). The id must
    /// not be in use; it takes its place in [`InstanceStore::instances_of`]
    /// by id, below the type's largest if it is smaller. Fails as
    /// [`InstanceStore::create_entity`] does, and on an id in use or 0.
    pub fn create_entity_with_id(
        &mut self,
        id: EntityId,
        ty: TypeId,
        attrs: Vec<Value>,
    ) -> Result<()> {
        self.load_entity(id, ty, attrs, Loc::NONE)?;
        settle_last(&mut self.by_type[ty as usize]);
        self.mark(RowKey::Entity(ty, id), Loc::NONE);
        Ok(())
    }

    /// Places an entity read from its committed row at `loc`, appending
    /// its id and taking a free row or a new one: a load places each
    /// type's rows in id order, and restores every list's ascending ids
    /// with one [`InstanceStore::sort_by_id`]. Nothing becomes dirty.
    pub(crate) fn load_entity(
        &mut self,
        id: EntityId,
        ty: TypeId,
        attrs: Vec<Value>,
        loc: Loc,
    ) -> Result<()> {
        let Some(table) = self.tables.get_mut(ty as usize) else {
            return Err(ModelError::UnknownEntityType(format!("#{ty}")));
        };
        table.check(ty, &attrs)?;
        let slot = match self.instances.entry(id) {
            Entry::Vacant(slot) if id != 0 => slot,
            _ => return Err(ModelError::IdInUse(id)),
        };
        slot.insert((ty, table.insert(id, attrs, loc)));
        self.by_type[ty as usize].push(id);
        self.next_entity = self.next_entity.max(id + 1);
        Ok(())
    }

    /// Puts instances and relationship instances back in creation
    /// (id) order after a load placed them in row order.
    pub(crate) fn sort_by_id(&mut self) {
        for ids in self.by_type.iter_mut().chain(&mut self.rels_by_type) {
            ids.sort_unstable();
        }
    }

    /// The instance for `id`.
    pub fn entity(&self, id: EntityId) -> Result<Instance<'_>> {
        let &(ty, row) = (self.instances.get(&id)).ok_or(ModelError::NoSuchInstance(id))?;
        Ok(Instance {
            ty,
            attrs: self.tables[ty as usize].row(row),
        })
    }

    /// The live rows of `ty` as `(id, attributes)`, in row order: read in
    /// place, with no lookup per row. That is ascending id order unless a
    /// deleted row was reused (see [`InstanceStore::instances_of`] for
    /// the ids in order).
    pub fn rows_of(&self, ty: TypeId) -> impl Iterator<Item = (EntityId, &[Value])> {
        static NONE: Table = Table {
            width: 0,
            values: Vec::new(),
            owners: Vec::new(),
            locs: Vec::new(),
            free: Vec::new(),
        };
        self.tables.get(ty as usize).unwrap_or(&NONE).rows()
    }

    /// Writes attribute `idx` of `id` and marks its row dirty. `idx` must
    /// be below the type's attribute count, as
    /// [`crate::Database::check_attr`] gives it.
    pub(crate) fn set_value(&mut self, id: EntityId, idx: usize, value: Value) -> Result<()> {
        let (ty, row) = self.row_of(id)?;
        self.tables[ty as usize].row_mut(row)[idx] = value;
        self.mark(RowKey::Entity(ty, id), Loc::NONE);
        Ok(())
    }

    /// Replaces every attribute of `id` and marks its row dirty. Fails,
    /// changing nothing, on a row whose width is not the type's.
    pub(crate) fn replace_row(&mut self, id: EntityId, attrs: Vec<Value>) -> Result<()> {
        let (ty, row) = self.row_of(id)?;
        let table = &mut self.tables[ty as usize];
        table.check(ty, &attrs)?;
        for (slot, v) in table.row_mut(row).iter_mut().zip(attrs) {
            *slot = v;
        }
        self.mark(RowKey::Entity(ty, id), Loc::NONE);
        Ok(())
    }

    fn row_of(&self, id: EntityId) -> Result<(TypeId, u32)> {
        (self.instances.get(&id).copied()).ok_or(ModelError::NoSuchInstance(id))
    }

    /// Whether an instance exists.
    pub fn exists(&self, id: EntityId) -> bool {
        self.instances.contains_key(&id)
    }

    /// Ids of all instances of a type, ascending by id — their creation
    /// order, since ids are allocated upwards. Every insertion path keeps
    /// it so, and the QUEL executor's canonical row order relies on it.
    pub fn instances_of(&self, ty: TypeId) -> &[EntityId] {
        self.by_type.get(ty as usize).map_or(&[], Vec::as_slice)
    }

    /// Total number of entity instances.
    pub fn entity_count(&self) -> usize {
        self.instances.len()
    }

    /// Deletes one instance: [`InstanceStore::delete_entities`] with one
    /// id.
    pub fn delete_entity(&mut self, schema: &Schema, id: EntityId) -> Result<()> {
        self.delete_entities(schema, &[id])
    }

    /// Deletes instances in one batch: detaches each from every ordering
    /// it is a child in, orphans its children (their P-edges are
    /// removed), and removes every relationship instance that references
    /// it. Entity-valued attributes elsewhere that referenced a victim
    /// become dangling; [`Value::Entity`] readers must tolerate missing
    /// targets. The store, dirty set included, ends as deleting the
    /// victims one at a time in any order leaves it. An id given twice
    /// counts once; an id with no instance fails the call before anything
    /// changes.
    ///
    /// Each touched type list is compacted in one pass from its first
    /// victim, each touched sibling group once, only the orderings a
    /// victim's type takes part in are visited (so every edge must join
    /// the types its ordering names, as [`crate::Database`] checks), and
    /// the relationship instances are swept once.
    pub fn delete_entities(&mut self, schema: &Schema, ids: &[EntityId]) -> Result<()> {
        if let Some(&id) = ids.iter().find(|id| !self.instances.contains_key(id)) {
            return Err(ModelError::NoSuchInstance(id));
        }
        let mut gone: Vec<(TypeId, EntityId)> = Vec::with_capacity(ids.len());
        for &id in ids {
            if let Some((ty, row)) = self.instances.remove(&id) {
                let loc = self.tables[ty as usize].remove(row);
                self.mark(RowKey::Entity(ty, id), loc);
                gone.push((ty, id));
            }
        }
        remove_from_lists(&mut self.by_type, &mut gone);
        let mut kids: BTreeMap<OrderingId, Vec<EntityId>> = BTreeMap::new();
        for run in gone.chunk_by(|a, b| a.0 == b.0) {
            let ty = run[0].0;
            let of_ty = run.iter().map(|&(_, id)| id);
            for o in schema.orderings_with_parent(ty) {
                for id in of_ty.clone() {
                    self.orphan_children(o, id);
                }
            }
            for o in schema.orderings_with_child(ty) {
                kids.entry(o).or_default().extend(of_ty.clone());
            }
        }
        for (o, mut victims) in kids {
            victims.sort_unstable();
            self.detach_all(o, &victims);
        }
        let mut victims: Vec<EntityId> = gone.iter().map(|&(_, id)| id).collect();
        victims.sort_unstable();
        let stale: Vec<RelInstanceId> = self
            .rel_instances
            .iter()
            .filter(|(_, r)| r.entities.iter().any(|e| victims.binary_search(e).is_ok()))
            .map(|(&rid, _)| rid)
            .collect();
        self.remove_relationships(&stale);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Relationships
    // ------------------------------------------------------------------

    /// Creates a relationship instance (caller has validated types).
    pub fn relate(
        &mut self,
        rel: RelTypeId,
        entities: Vec<EntityId>,
        attrs: Vec<Value>,
    ) -> RelInstanceId {
        let id = self.next_rel;
        self.load_rel(id, rel, entities, attrs, Loc::NONE);
        self.mark(RowKey::Rel(id), Loc::NONE);
        id
    }

    /// Places a relationship instance as a committed row states it —
    /// created, or its roles and attributes replaced — keeping its
    /// relationship's ids ascending. Its row becomes dirty.
    pub(crate) fn put_rel(
        &mut self,
        id: RelInstanceId,
        rel: RelTypeId,
        entities: Vec<EntityId>,
        attrs: Vec<Value>,
    ) {
        let loc = self.rel_instances.get(&id).map_or(Loc::NONE, |r| r.loc);
        let fresh = !self.rel_instances.contains_key(&id);
        self.load_rel(id, rel, entities, attrs, loc);
        if fresh {
            settle_last(&mut self.rels_by_type[rel as usize]);
        }
        self.mark(RowKey::Rel(id), Loc::NONE);
    }

    /// Places a relationship instance read from its committed row at
    /// `loc`, appending a new id (see [`InstanceStore::load_entity`]):
    /// nothing becomes dirty.
    pub(crate) fn load_rel(
        &mut self,
        id: RelInstanceId,
        rel: RelTypeId,
        entities: Vec<EntityId>,
        attrs: Vec<Value>,
        loc: Loc,
    ) {
        let r = RelInstance {
            rel,
            entities,
            attrs,
            loc,
        };
        if self.rel_instances.insert(id, r).is_none() {
            self.rels_by_type[rel as usize].push(id);
        }
        self.next_rel = self.next_rel.max(id + 1);
    }

    /// The relationship instance for `id`.
    pub fn relationship(&self, id: RelInstanceId) -> Result<&RelInstance> {
        self.rel_instances
            .get(&id)
            .ok_or(ModelError::NoSuchRelInstance(id))
    }

    /// Removes a relationship instance.
    pub fn remove_relationship(&mut self, id: RelInstanceId) -> Result<()> {
        if !self.rel_instances.contains_key(&id) {
            return Err(ModelError::NoSuchRelInstance(id));
        }
        self.remove_relationships(&[id]);
        Ok(())
    }

    /// Removes the relationship instances `ids` (those present),
    /// compacting each touched relationship's list once.
    fn remove_relationships(&mut self, ids: &[RelInstanceId]) {
        let mut gone = Vec::with_capacity(ids.len());
        for &id in ids {
            if let Some(r) = self.rel_instances.remove(&id) {
                self.mark(RowKey::Rel(id), r.loc);
                gone.push((r.rel, id));
            }
        }
        remove_from_lists(&mut self.rels_by_type, &mut gone);
    }

    /// Ids of all instances of a relationship, ascending by id — their
    /// creation order. Every insertion path keeps it so.
    pub fn relationships_of(&self, rel: RelTypeId) -> &[RelInstanceId] {
        self.rels_by_type
            .get(rel as usize)
            .map_or(&[], Vec::as_slice)
    }

    // ------------------------------------------------------------------
    // Hierarchical ordering (instance graphs)
    // ------------------------------------------------------------------

    fn state(&self, ordering: OrderingId) -> &OrderingState {
        &self.orderings[ordering as usize]
    }

    fn state_mut(&mut self, ordering: OrderingId) -> &mut OrderingState {
        &mut self.orderings[ordering as usize]
    }

    /// Inserts `child` at `position` under `parent` in `ordering`.
    /// `parent = None` targets the global group of a parentless ordering.
    /// Enforces: the child has no parent yet in this ordering, the position
    /// is within bounds, and no P-edge cycle arises (§5.5).
    pub fn ordering_insert(
        &mut self,
        schema: &Schema,
        ordering: OrderingId,
        parent: Option<EntityId>,
        position: usize,
        child: EntityId,
    ) -> Result<()> {
        let oname = || schema.ordering_display_name(ordering);
        if self.state(ordering).parent_of.contains_key(&child) {
            return Err(ModelError::AlreadyOrdered {
                ordering: oname(),
                child,
            });
        }
        if self.part_of(ordering, parent, child) {
            return Err(ModelError::CycleDetected {
                ordering: oname(),
                child,
            });
        }
        let len = self.ordering_children(ordering, parent).len();
        if position > len {
            return Err(ModelError::PositionOutOfBounds { position, len });
        }
        let state = self.state_mut(ordering);
        let sibs = state.children.entry(parent).or_default();
        sibs.insert(position, child);
        let moved = sibs[position + 1..].to_vec();
        state.parent_of.insert(child, PEdge::new(parent, Loc::NONE));
        self.mark(RowKey::Edge(ordering, child), Loc::NONE);
        self.mark_shifted(ordering, &moved);
        Ok(())
    }

    /// Places a P-edge read from its committed row at `loc`: `child` at
    /// position `seq` under `parent`. Committed positions are dense, so
    /// rows may arrive in any order; [`InstanceStore::check_loaded_edges`]
    /// verifies the result once every edge is in. Nothing becomes dirty.
    pub(crate) fn load_edge(
        &mut self,
        schema: &Schema,
        ordering: OrderingId,
        parent: Option<EntityId>,
        seq: usize,
        child: EntityId,
        loc: Loc,
    ) -> Result<()> {
        let state = self.state_mut(ordering);
        if state
            .parent_of
            .insert(child, PEdge::new(parent, loc))
            .is_some()
        {
            return Err(ModelError::AlreadyOrdered {
                ordering: schema.ordering_display_name(ordering),
                child,
            });
        }
        let sibs = state.children.entry(parent).or_default();
        if sibs.len() <= seq {
            // 0 is never an entity id: it marks a position not yet filled.
            sibs.resize(seq + 1, 0);
        }
        if sibs[seq] != 0 {
            return Err(ModelError::Corrupt(format!(
                "two children at position {seq} under {parent:?} in {}",
                schema.ordering_display_name(ordering)
            )));
        }
        sibs[seq] = child;
        Ok(())
    }

    /// The invariants [`InstanceStore::ordering_insert`] enforces one edge
    /// at a time, checked over a whole load: every position filled, and
    /// no P-edge cycle (§5.5).
    pub(crate) fn check_loaded_edges(&self, schema: &Schema) -> Result<()> {
        for (o, state) in self.orderings.iter().enumerate() {
            let name = || schema.ordering_display_name(o as OrderingId);
            if let Some(parent) = state.children.iter().find(|(_, k)| k.contains(&0)) {
                return Err(ModelError::Corrupt(format!(
                    "a gap in the positions under {:?} in {}",
                    parent.0,
                    name()
                )));
            }
            for (&child, edge) in &state.parent_of {
                if self.part_of(o as OrderingId, edge.parent(), child) {
                    return Err(ModelError::CycleDetected {
                        ordering: name(),
                        child,
                    });
                }
            }
        }
        Ok(())
    }

    /// The cycle restriction: whether walking up from `parent` meets
    /// `child` — attaching it there would make an instance "part of
    /// itself". A walk longer than the ordering has edges is a cycle too.
    fn part_of(&self, ordering: OrderingId, parent: Option<EntityId>, child: EntityId) -> bool {
        let edges = &self.state(ordering).parent_of;
        let (mut cursor, mut steps) = (parent, 0);
        while let Some(p) = cursor {
            if p == child || steps > edges.len() {
                return true;
            }
            cursor = edges.get(&p).and_then(|e| e.parent());
            steps += 1;
        }
        false
    }

    /// Takes the `victims` (ascending) out of their groups in `ordering`:
    /// marks each one's edge with its row locator, then compacts each
    /// touched group once, marking the survivors from its first removed
    /// position on as shifted, and drops a group left empty.
    fn detach_all(&mut self, ordering: OrderingId, victims: &[EntityId]) {
        let Some(state) = self.orderings.get_mut(ordering as usize) else {
            return;
        };
        let mut marks = Vec::new();
        let mut groups = Vec::new();
        for &v in victims {
            if let Some(edge) = state.parent_of.remove(&v) {
                marks.push((RowKey::Edge(ordering, v), edge.loc));
                groups.push(edge.parent());
            }
        }
        groups.sort_unstable();
        groups.dedup();
        for parent in groups {
            let Some(sibs) = state.children.get_mut(&parent) else {
                continue;
            };
            let mut shifted = false;
            sibs.retain(|k| {
                let gone = victims.binary_search(k).is_ok();
                shifted |= gone;
                if shifted && !gone {
                    marks.push((RowKey::Edge(ordering, *k), Loc::NONE));
                }
                !gone
            });
            // A load makes no empty group: neither does a deletion.
            if sibs.is_empty() {
                state.children.remove(&parent);
            }
        }
        for (key, loc) in marks {
            self.mark(key, loc);
        }
    }

    /// Drops `parent`'s group in `ordering`: its children lose their
    /// P-edges, each marked with its row locator.
    fn orphan_children(&mut self, ordering: OrderingId, parent: EntityId) {
        let Some(state) = self.orderings.get_mut(ordering as usize) else {
            return;
        };
        let Some(kids) = state.children.remove(&Some(parent)) else {
            return;
        };
        let edges: Vec<_> = (kids.into_iter())
            .filter_map(|k| Some((k, state.parent_of.remove(&k)?)))
            .collect();
        for (k, edge) in edges {
            self.mark(RowKey::Edge(ordering, k), edge.loc);
        }
    }

    /// Appends `child` as the last child of `parent` in `ordering`.
    pub fn ordering_append(
        &mut self,
        schema: &Schema,
        ordering: OrderingId,
        parent: Option<EntityId>,
        child: EntityId,
    ) -> Result<()> {
        let len = self
            .state(ordering)
            .children
            .get(&parent)
            .map_or(0, Vec::len);
        self.ordering_insert(schema, ordering, parent, len, child)
    }

    /// Detaches `child` from its parent in `ordering`.
    pub fn ordering_remove(
        &mut self,
        schema: &Schema,
        ordering: OrderingId,
        child: EntityId,
    ) -> Result<()> {
        if !self.state(ordering).parent_of.contains_key(&child) {
            return Err(ModelError::NotAChild {
                ordering: schema.ordering_display_name(ordering),
                child,
            });
        }
        self.detach_all(ordering, &[child]);
        Ok(())
    }

    /// The ordered children of `parent` in `ordering`.
    pub fn ordering_children(&self, ordering: OrderingId, parent: Option<EntityId>) -> &[EntityId] {
        self.state(ordering)
            .children
            .get(&parent)
            .map_or(&[], Vec::as_slice)
    }

    /// The parent of `child` in `ordering` (`Ok(None)` = child of the
    /// global group; `Err(NotAChild)` = not in the ordering at all).
    pub fn ordering_parent(
        &self,
        schema: &Schema,
        ordering: OrderingId,
        child: EntityId,
    ) -> Result<Option<EntityId>> {
        self.state(ordering)
            .parent_of
            .get(&child)
            .map(|e| e.parent())
            .ok_or_else(|| ModelError::NotAChild {
                ordering: schema.ordering_display_name(ordering),
                child,
            })
    }

    /// The ordinal position (0-based) of `child` under its parent.
    pub fn ordering_position(
        &self,
        schema: &Schema,
        ordering: OrderingId,
        child: EntityId,
    ) -> Result<usize> {
        let parent = self.ordering_parent(schema, ordering, child)?;
        let sibs = self.ordering_children(ordering, parent);
        sibs.iter()
            .position(|&e| e == child)
            .ok_or_else(|| ModelError::NotAChild {
                ordering: schema.ordering_display_name(ordering),
                child,
            })
    }

    /// `a before b in ordering` (§5.6): true iff both share a parent in the
    /// ordering and `a` precedes `b`. Differing parents → false (the paper:
    /// "they are not comparable, and the before clause evaluates to false").
    pub fn before(&self, ordering: OrderingId, a: EntityId, b: EntityId) -> bool {
        let state = self.state(ordering);
        let (Some(pa), Some(pb)) = (state.parent_of.get(&a), state.parent_of.get(&b)) else {
            return false;
        };
        let (pa, pb) = (pa.parent(), pb.parent());
        if pa != pb || a == b {
            return false;
        }
        let sibs = match state.children.get(&pa) {
            Some(s) => s,
            None => return false,
        };
        let mut seen_a = false;
        for &e in sibs {
            if e == a {
                seen_a = true;
            } else if e == b {
                return seen_a;
            }
        }
        false
    }

    /// `a after b in ordering` (§5.6).
    pub fn after(&self, ordering: OrderingId, a: EntityId, b: EntityId) -> bool {
        self.before(ordering, b, a)
    }

    /// `a under p in ordering` (§5.6): true iff `p` is `a`'s parent.
    pub fn under(&self, ordering: OrderingId, a: EntityId, p: EntityId) -> bool {
        self.state(ordering).parent_of.get(&a).map(|e| e.parent()) == Some(Some(p))
    }

    /// The n-th (0-based) child of `parent`, e.g. "the third note in
    /// chord x".
    pub fn nth_child(
        &self,
        ordering: OrderingId,
        parent: Option<EntityId>,
        n: usize,
    ) -> Option<EntityId> {
        self.ordering_children(ordering, parent).get(n).copied()
    }

    /// All `(parent, children)` groups of an ordering, parents sorted for
    /// determinism.
    pub fn ordering_groups(&self, ordering: OrderingId) -> Vec<(Option<EntityId>, &[EntityId])> {
        let mut groups: Vec<_> = self
            .state(ordering)
            .children
            .iter()
            .map(|(p, v)| (*p, v.as_slice()))
            .collect();
        groups.sort_by_key(|(p, _)| *p);
        groups
    }

    /// Transitive descendants of `parent` in a (possibly recursive)
    /// ordering, preorder.
    pub fn descendants(&self, ordering: OrderingId, parent: EntityId) -> Vec<EntityId> {
        let mut out = Vec::new();
        let mut stack: Vec<EntityId> = self
            .ordering_children(ordering, Some(parent))
            .iter()
            .rev()
            .copied()
            .collect();
        while let Some(e) = stack.pop() {
            out.push(e);
            stack.extend(
                self.ordering_children(ordering, Some(e))
                    .iter()
                    .rev()
                    .copied(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeDef;
    use crate::value::DataType;

    fn setup() -> (Schema, InstanceStore, TypeId, TypeId, OrderingId) {
        let mut s = Schema::new();
        let chord = s
            .define_entity(
                "CHORD",
                vec![AttributeDef {
                    name: "name".into(),
                    ty: DataType::Integer,
                }],
            )
            .unwrap();
        let note = s
            .define_entity(
                "NOTE",
                vec![AttributeDef {
                    name: "name".into(),
                    ty: DataType::Integer,
                }],
            )
            .unwrap();
        let o = s
            .define_ordering(Some("note_in_chord"), vec![note], Some(chord))
            .unwrap();
        let store = InstanceStore::new(&s);
        (s, store, chord, note, o)
    }

    #[test]
    fn figure6_instance_graph() {
        // Fig. 6: parent y with ordered children {u, v, w, x}; "w is the
        // third child of y".
        let (s, mut st, chord, note, o) = setup();
        let y = st.create_entity(chord, vec![Value::Integer(0)]).unwrap();
        let kids: Vec<EntityId> = (0..4)
            .map(|i| st.create_entity(note, vec![Value::Integer(i)]).unwrap())
            .collect();
        let (u, v, w, x) = (kids[0], kids[1], kids[2], kids[3]);
        for &k in &kids {
            st.ordering_append(&s, o, Some(y), k).unwrap();
        }
        assert_eq!(st.ordering_children(o, Some(y)), &[u, v, w, x]);
        assert_eq!(st.nth_child(o, Some(y), 2), Some(w), "w is the third child");
        assert_eq!(st.ordering_parent(&s, o, w).unwrap(), Some(y));
        assert_eq!(st.ordering_position(&s, o, x).unwrap(), 3);
        assert!(st.before(o, u, v));
        assert!(st.before(o, u, x));
        assert!(!st.before(o, x, u));
        assert!(st.after(o, x, w));
        assert!(st.under(o, u, y));
    }

    #[test]
    fn before_is_false_across_parents() {
        // §5.6: "If a and b have different parents, then they are not
        // comparable, and the before clause evaluates to false."
        let (s, mut st, chord, note, o) = setup();
        let c1 = st.create_entity(chord, vec![Value::Null]).unwrap();
        let c2 = st.create_entity(chord, vec![Value::Null]).unwrap();
        let n1 = st.create_entity(note, vec![Value::Null]).unwrap();
        let n2 = st.create_entity(note, vec![Value::Null]).unwrap();
        st.ordering_append(&s, o, Some(c1), n1).unwrap();
        st.ordering_append(&s, o, Some(c2), n2).unwrap();
        assert!(!st.before(o, n1, n2));
        assert!(!st.before(o, n2, n1));
        assert!(!st.after(o, n1, n2));
    }

    #[test]
    fn before_irreflexive() {
        let (s, mut st, chord, note, o) = setup();
        let c = st.create_entity(chord, vec![Value::Null]).unwrap();
        let n = st.create_entity(note, vec![Value::Null]).unwrap();
        st.ordering_append(&s, o, Some(c), n).unwrap();
        assert!(!st.before(o, n, n));
    }

    #[test]
    fn insert_at_position_shifts() {
        let (s, mut st, chord, note, o) = setup();
        let c = st.create_entity(chord, vec![Value::Null]).unwrap();
        let a = st.create_entity(note, vec![Value::Null]).unwrap();
        let b = st.create_entity(note, vec![Value::Null]).unwrap();
        let m = st.create_entity(note, vec![Value::Null]).unwrap();
        st.ordering_append(&s, o, Some(c), a).unwrap();
        st.ordering_append(&s, o, Some(c), b).unwrap();
        st.ordering_insert(&s, o, Some(c), 1, m).unwrap();
        assert_eq!(st.ordering_children(o, Some(c)), &[a, m, b]);
        assert!(st.before(o, a, m) && st.before(o, m, b));
    }

    #[test]
    fn position_out_of_bounds() {
        let (s, mut st, chord, note, o) = setup();
        let c = st.create_entity(chord, vec![Value::Null]).unwrap();
        let n = st.create_entity(note, vec![Value::Null]).unwrap();
        assert!(matches!(
            st.ordering_insert(&s, o, Some(c), 1, n),
            Err(ModelError::PositionOutOfBounds { .. })
        ));
    }

    #[test]
    fn child_cannot_have_two_parents_in_one_ordering() {
        let (s, mut st, chord, note, o) = setup();
        let c1 = st.create_entity(chord, vec![Value::Null]).unwrap();
        let c2 = st.create_entity(chord, vec![Value::Null]).unwrap();
        let n = st.create_entity(note, vec![Value::Null]).unwrap();
        st.ordering_append(&s, o, Some(c1), n).unwrap();
        assert!(matches!(
            st.ordering_append(&s, o, Some(c2), n),
            Err(ModelError::AlreadyOrdered { .. })
        ));
    }

    #[test]
    fn multiple_parents_across_orderings() {
        // §5.5 multiple parents: a note under its chord AND under its staff.
        let mut s = Schema::new();
        let chord = s.define_entity("CHORD", vec![]).unwrap();
        let staff = s.define_entity("STAFF", vec![]).unwrap();
        let note = s.define_entity("NOTE", vec![]).unwrap();
        let per_chord = s
            .define_ordering(Some("per_chord"), vec![note], Some(chord))
            .unwrap();
        let per_staff = s
            .define_ordering(Some("per_staff"), vec![note], Some(staff))
            .unwrap();
        let mut st = InstanceStore::new(&s);
        let c = st.create_entity(chord, vec![]).unwrap();
        let f = st.create_entity(staff, vec![]).unwrap();
        let n = st.create_entity(note, vec![]).unwrap();
        st.ordering_append(&s, per_chord, Some(c), n).unwrap();
        st.ordering_append(&s, per_staff, Some(f), n).unwrap();
        assert!(st.under(per_chord, n, c));
        assert!(st.under(per_staff, n, f));
    }

    #[test]
    fn recursive_ordering_cycle_rejected() {
        // §5.5: P-edge cycles ("part of itself") are disallowed.
        let mut s = Schema::new();
        let bg = s.define_entity("BEAM_GROUP", vec![]).unwrap();
        let o = s
            .define_ordering(Some("beams"), vec![bg], Some(bg))
            .unwrap();
        let mut st = InstanceStore::new(&s);
        let g1 = st.create_entity(bg, vec![]).unwrap();
        let g2 = st.create_entity(bg, vec![]).unwrap();
        let g3 = st.create_entity(bg, vec![]).unwrap();
        st.ordering_append(&s, o, Some(g1), g2).unwrap();
        st.ordering_append(&s, o, Some(g2), g3).unwrap();
        // g3 is a descendant of g1; making g1 a child of g3 would cycle.
        assert!(matches!(
            st.ordering_append(&s, o, Some(g3), g1),
            Err(ModelError::CycleDetected { .. })
        ));
        // Self-parent is the degenerate cycle.
        let g4 = st.create_entity(bg, vec![]).unwrap();
        assert!(matches!(
            st.ordering_append(&s, o, Some(g4), g4),
            Err(ModelError::CycleDetected { .. })
        ));
    }

    #[test]
    fn inhomogeneous_ordering_positions() {
        // §5.5: chords and rests intermixed under a voice; "the second
        // object under voice V" is well-defined.
        let mut s = Schema::new();
        let voice = s.define_entity("VOICE", vec![]).unwrap();
        let chord = s.define_entity("CHORD", vec![]).unwrap();
        let rest = s.define_entity("REST", vec![]).unwrap();
        let o = s
            .define_ordering(Some("voice_content"), vec![chord, rest], Some(voice))
            .unwrap();
        let mut st = InstanceStore::new(&s);
        let v = st.create_entity(voice, vec![]).unwrap();
        let c1 = st.create_entity(chord, vec![]).unwrap();
        let r1 = st.create_entity(rest, vec![]).unwrap();
        let c2 = st.create_entity(chord, vec![]).unwrap();
        st.ordering_append(&s, o, Some(v), c1).unwrap();
        st.ordering_append(&s, o, Some(v), r1).unwrap();
        st.ordering_append(&s, o, Some(v), c2).unwrap();
        assert_eq!(st.nth_child(o, Some(v), 1), Some(r1));
        assert!(st.before(o, c1, r1));
        assert!(st.before(o, r1, c2));
    }

    #[test]
    fn remove_and_reattach() {
        let (s, mut st, chord, note, o) = setup();
        let c = st.create_entity(chord, vec![Value::Null]).unwrap();
        let a = st.create_entity(note, vec![Value::Null]).unwrap();
        let b = st.create_entity(note, vec![Value::Null]).unwrap();
        st.ordering_append(&s, o, Some(c), a).unwrap();
        st.ordering_append(&s, o, Some(c), b).unwrap();
        st.ordering_remove(&s, o, a).unwrap();
        assert_eq!(st.ordering_children(o, Some(c)), &[b]);
        assert!(st.ordering_parent(&s, o, a).is_err());
        // Reattach at front.
        st.ordering_insert(&s, o, Some(c), 0, a).unwrap();
        assert_eq!(st.ordering_children(o, Some(c)), &[a, b]);
    }

    #[test]
    fn delete_entity_detaches_everywhere() {
        let (s, mut st, chord, note, o) = setup();
        let c = st.create_entity(chord, vec![Value::Null]).unwrap();
        let a = st.create_entity(note, vec![Value::Null]).unwrap();
        let b = st.create_entity(note, vec![Value::Null]).unwrap();
        st.ordering_append(&s, o, Some(c), a).unwrap();
        st.ordering_append(&s, o, Some(c), b).unwrap();
        st.delete_entity(&s, a).unwrap();
        assert_eq!(st.ordering_children(o, Some(c)), &[b]);
        assert!(!st.exists(a));
        assert_eq!(st.instances_of(note), &[b]);
        // Deleting the parent orphans the child.
        st.delete_entity(&s, c).unwrap();
        assert!(st.ordering_parent(&s, o, b).is_err());
    }

    #[test]
    fn a_row_of_the_wrong_width_or_type_changes_nothing() {
        let (_, mut st, chord, note, _) = setup();
        let n = st.create_entity(note, vec![Value::Integer(1)]).unwrap();
        let before = st.clone();
        assert!(matches!(
            st.create_entity(chord, vec![]),
            Err(ModelError::RowWidth {
                expected: 1,
                found: 0,
                ..
            })
        ));
        assert!(matches!(
            st.create_entity(note, vec![Value::Null, Value::Null]),
            Err(ModelError::RowWidth { found: 2, .. })
        ));
        assert!(matches!(
            st.create_entity(7, vec![Value::Null]),
            Err(ModelError::UnknownEntityType(_))
        ));
        assert!(matches!(
            st.create_entity_with_id(n, note, vec![Value::Null]),
            Err(ModelError::IdInUse(_))
        ));
        assert!(matches!(
            st.create_entity_with_id(0, note, vec![Value::Null]),
            Err(ModelError::IdInUse(0))
        ));
        assert!(matches!(
            st.replace_row(n, vec![]),
            Err(ModelError::RowWidth { .. })
        ));
        assert!(st == before);
        assert_eq!(st.entity_count(), 1);
        assert_eq!(st.rows_of(chord).count(), 0);
        // The id allocator did not move either.
        assert_eq!(st.create_entity(chord, vec![Value::Null]).unwrap(), n + 1);
    }

    #[test]
    fn a_deleted_row_is_reused_and_no_other_row_moves() {
        let (s, mut st, _, note, _) = setup();
        let ids: Vec<EntityId> = (0..4)
            .map(|i| st.create_entity(note, vec![Value::Integer(i)]).unwrap())
            .collect();
        st.delete_entities(&s, &[ids[1], ids[2]]).unwrap();
        let row = |st: &InstanceStore| st.rows_of(note).map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(row(&st), [ids[0], ids[3]]);
        let fresh = st.create_entity(note, vec![Value::Integer(9)]).unwrap();
        // The freed row, between the two survivors, holds the new id.
        assert_eq!(row(&st), [ids[0], fresh, ids[3]]);
        assert_eq!(st.instances_of(note), [ids[0], ids[3], fresh]);
        for (id, attrs) in st.rows_of(note) {
            assert_eq!(st.entity(id).unwrap().attrs, attrs);
        }
        assert_eq!(st.entity(fresh).unwrap().attrs, [Value::Integer(9)]);
        st.set_value(ids[3], 0, Value::Integer(5)).unwrap();
        assert_eq!(st.entity(ids[3]).unwrap().attrs, [Value::Integer(5)]);
    }

    #[test]
    fn removing_the_last_child_drops_its_group() {
        let (s, mut st, chord, note, o) = setup();
        let c = st.create_entity(chord, vec![Value::Null]).unwrap();
        let a = st.create_entity(note, vec![Value::Null]).unwrap();
        let b = st.create_entity(note, vec![Value::Null]).unwrap();
        st.ordering_append(&s, o, Some(c), a).unwrap();
        st.ordering_append(&s, o, Some(c), b).unwrap();
        st.ordering_remove(&s, o, a).unwrap();
        st.delete_entity(&s, b).unwrap();
        assert!(st.ordering_groups(o).is_empty());
        // Nor does a refused insert leave one behind.
        assert!(st.ordering_insert(&s, o, Some(c), 1, a).is_err());
        assert!(st.ordering_groups(o).is_empty());
    }

    #[test]
    fn descendants_preorder() {
        let mut s = Schema::new();
        let bg = s.define_entity("G", vec![]).unwrap();
        let o = s.define_ordering(Some("o"), vec![bg], Some(bg)).unwrap();
        let mut st = InstanceStore::new(&s);
        let root = st.create_entity(bg, vec![]).unwrap();
        let a = st.create_entity(bg, vec![]).unwrap();
        let b = st.create_entity(bg, vec![]).unwrap();
        let a1 = st.create_entity(bg, vec![]).unwrap();
        let a2 = st.create_entity(bg, vec![]).unwrap();
        st.ordering_append(&s, o, Some(root), a).unwrap();
        st.ordering_append(&s, o, Some(root), b).unwrap();
        st.ordering_append(&s, o, Some(a), a1).unwrap();
        st.ordering_append(&s, o, Some(a), a2).unwrap();
        assert_eq!(st.descendants(o, root), vec![a, a1, a2, b]);
    }

    #[test]
    fn global_ordering_without_parent_entity() {
        let mut s = Schema::new();
        let m = s.define_entity("MEASURE", vec![]).unwrap();
        let o = s
            .define_ordering(Some("all_measures"), vec![m], None)
            .unwrap();
        let mut st = InstanceStore::new(&s);
        let m1 = st.create_entity(m, vec![]).unwrap();
        let m2 = st.create_entity(m, vec![]).unwrap();
        st.ordering_append(&s, o, None, m1).unwrap();
        st.ordering_append(&s, o, None, m2).unwrap();
        assert_eq!(st.ordering_children(o, None), &[m1, m2]);
        assert!(st.before(o, m1, m2));
        assert_eq!(st.ordering_parent(&s, o, m1).unwrap(), None);
    }

    #[test]
    fn relationship_instances() {
        let mut s = Schema::new();
        let person = s.define_entity("PERSON", vec![]).unwrap();
        let comp = s.define_entity("COMPOSITION", vec![]).unwrap();
        let rel = s
            .define_relationship(
                "COMPOSER",
                vec![
                    crate::schema::RoleDef {
                        name: "person".into(),
                        entity_type: person,
                    },
                    crate::schema::RoleDef {
                        name: "composition".into(),
                        entity_type: comp,
                    },
                ],
                vec![],
            )
            .unwrap();
        let mut st = InstanceStore::new(&s);
        let p = st.create_entity(person, vec![]).unwrap();
        let c = st.create_entity(comp, vec![]).unwrap();
        let r = st.relate(rel, vec![p, c], vec![]);
        assert_eq!(st.relationship(r).unwrap().entities, vec![p, c]);
        assert_eq!(st.relationships_of(rel), &[r]);
        // Deleting a participant removes the relationship instance.
        st.delete_entity(&s, p).unwrap();
        assert!(st.relationship(r).is_err());
        assert!(st.relationships_of(rel).is_empty());
    }
}
