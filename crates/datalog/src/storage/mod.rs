//! Fact storage: relations (tuple sets with indexes) and the database (a named
//! collection of relations).

pub mod database;
pub mod relation;

pub use database::Database;
pub use relation::{hash_key, Candidates, IndexId, KeyHasher, Relation, RowId};
