//! Error type for the data model layer.

use std::fmt;

use mdm_storage::StorageError;

/// Errors produced by schema definition, instance manipulation, and
/// persistence.
#[derive(Debug)]
pub enum ModelError {
    /// No entity type with this name is defined.
    UnknownEntityType(String),
    /// No attribute with this name on the given entity type.
    UnknownAttribute { entity: String, attribute: String },
    /// No relationship with this name is defined.
    UnknownRelationship(String),
    /// No ordering with this name is defined.
    UnknownOrdering(String),
    /// No secondary index with this name is defined.
    UnknownIndex(String),
    /// An ordering could not be inferred from operand types, or several
    /// orderings matched.
    AmbiguousOrdering(String),
    /// A name was defined twice.
    DuplicateDefinition(String),
    /// A value's type did not match the attribute's declared type.
    TypeMismatch {
        expected: String,
        found: String,
        context: String,
    },
    /// The entity instance does not exist.
    NoSuchInstance(u64),
    /// The relationship instance does not exist.
    NoSuchRelInstance(u64),
    /// A row of attribute values whose length is not its entity type's
    /// attribute count.
    RowWidth {
        ty: u32,
        expected: usize,
        found: usize,
    },
    /// An entity id already in use, or 0 (never an entity id).
    IdInUse(u64),
    /// An entity of the wrong type was used in an ordering or relationship
    /// role.
    WrongEntityType {
        expected: String,
        found: String,
        context: String,
    },
    /// Inserting the child would make an instance an ancestor of itself
    /// (the P-edge cycle restriction of §5.5).
    CycleDetected { ordering: String, child: u64 },
    /// The child already has a parent in this ordering.
    AlreadyOrdered { ordering: String, child: u64 },
    /// The entity is not a child in the given ordering.
    NotAChild { ordering: String, child: u64 },
    /// Position out of bounds for an ordering insert.
    PositionOutOfBounds { position: usize, len: usize },
    /// The schema definition itself is invalid.
    InvalidSchema(String),
    /// Persistence failure from the storage engine.
    Storage(StorageError),
    /// Stored bytes could not be decoded.
    Corrupt(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownEntityType(n) => write!(f, "unknown entity type: {n}"),
            ModelError::UnknownAttribute { entity, attribute } => {
                write!(f, "entity type {entity} has no attribute {attribute}")
            }
            ModelError::UnknownRelationship(n) => write!(f, "unknown relationship: {n}"),
            ModelError::UnknownOrdering(n) => write!(f, "unknown ordering: {n}"),
            ModelError::UnknownIndex(n) => write!(f, "unknown index: {n}"),
            ModelError::AmbiguousOrdering(m) => write!(f, "ambiguous ordering: {m}"),
            ModelError::DuplicateDefinition(n) => write!(f, "duplicate definition: {n}"),
            ModelError::TypeMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            ModelError::NoSuchInstance(id) => write!(f, "no entity instance with id {id}"),
            ModelError::NoSuchRelInstance(id) => {
                write!(f, "no relationship instance with id {id}")
            }
            ModelError::RowWidth {
                ty,
                expected,
                found,
            } => write!(
                f,
                "entity type #{ty} rows hold {expected} values, not {found}"
            ),
            ModelError::IdInUse(id) => write!(f, "entity id {id} is in use or reserved"),
            ModelError::WrongEntityType {
                expected,
                found,
                context,
            } => write!(
                f,
                "wrong entity type in {context}: expected {expected}, found {found}"
            ),
            ModelError::CycleDetected { ordering, child } => write!(
                f,
                "inserting {child} into ordering {ordering} would make it part of itself"
            ),
            ModelError::AlreadyOrdered { ordering, child } => write!(
                f,
                "entity {child} already has a parent in ordering {ordering}"
            ),
            ModelError::NotAChild { ordering, child } => {
                write!(f, "entity {child} is not a child in ordering {ordering}")
            }
            ModelError::PositionOutOfBounds { position, len } => {
                write!(
                    f,
                    "position {position} out of bounds for ordering of length {len}"
                )
            }
            ModelError::InvalidSchema(m) => write!(f, "invalid schema: {m}"),
            ModelError::Storage(e) => write!(f, "storage error: {e}"),
            ModelError::Corrupt(m) => write!(f, "corrupt data: {m}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ModelError {
    fn from(e: StorageError) -> Self {
        ModelError::Storage(e)
    }
}

impl From<mdm_storage::codec::Error> for ModelError {
    fn from(e: mdm_storage::codec::Error) -> Self {
        ModelError::Corrupt(e.to_string())
    }
}

/// Convenience result alias for model operations.
pub type Result<T> = std::result::Result<T, ModelError>;
