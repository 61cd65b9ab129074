//! # webtable-search
//!
//! The relational search application of §5: once tables are annotated with
//! entities, types and relations, select-project queries
//! `R(E1 ∈ T1, E2 ∈ T2)` — "all movies directed by X" — can be answered
//! over the open Web corpus.
//!
//! * [`SearchEngine`] — the front door: owns catalog + corpus + index,
//!   executes every [`Query`] variant through one
//!   [`search`](SearchEngine::search) entry point;
//! * [`AnnotatedCorpus`] — tables plus machine annotations;
//! * [`SearchIndex`] — text layer (Lucene stand-in) + annotation layer;
//! * [`retrieval`] — table-level keyword retrieval over a [`TableIndex`];
//! * [`augment`] — row/column population and entity-relationship queries;
//! * [`eval`] — workload sampling and MAP judging against the oracle
//!   (the DBPedia stand-in).

pub mod augment;
pub mod corpus;
pub mod engine;
pub mod eval;
pub mod index;
pub mod join;
pub mod query;
pub mod retrieval;
pub mod wire;

pub use augment::{populate_columns, populate_rows, related_search};
pub use corpus::AnnotatedCorpus;
pub use engine::{Query, SearchEngine};
pub use eval::{build_workload, judge, map_over_queries, query_ap, relevant_entities, Workload};
pub use index::{CellRef, ColRef, PairRef, SearchIndex};
pub use join::{join_truth, JoinQuery};
pub use query::{AnswerKey, EntityQuery, RankedAnswer};
pub use retrieval::TableIndex;
