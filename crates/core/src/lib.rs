//! # webtable-core
//!
//! The primary contribution of *Annotating and Searching Web Tables Using
//! Entities, Types and Relationships* (Limaye, Sarawagi, Chakrabarti;
//! VLDB 2010): a collective annotator that simultaneously labels table
//! cells with entities, columns with types, and column pairs with binary
//! relations from a catalog, by MAP inference in a joint graphical model.
//!
//! * [`candidates`] — candidate-space construction from the lemma index (§4.3);
//! * [`features`] / [`weights`] — the feature families `f1`–`f5` and weight
//!   vectors `w1`–`w5` (§4.2);
//! * [`model`] — the per-table factor graph (Fig. 10) with `na` labels;
//! * [`infer`] — collective BP inference (Fig. 11) and the simplified exact
//!   special case (Fig. 2);
//! * [`baselines`] — LCA and Majority/threshold voting (§4.5);
//! * [`pipeline`] — annotator construction, persistence, the worker pool;
//! * [`session`] — the request/response front door
//!   ([`AnnotateRequest`] → [`Annotator::run`] → [`AnnotateResponse`]);
//! * [`stream`] — bounded-memory streaming annotation
//!   ([`Annotator::annotate_stream`]).
//!
//! ```no_run
//! use std::sync::Arc;
//! use webtable_catalog::{generate_world, WorldConfig};
//! use webtable_core::{AnnotateRequest, Annotator};
//!
//! let world = generate_world(&WorldConfig::default()).unwrap();
//! let annotator = Annotator::new(Arc::clone(&world.catalog));
//! let tables: Vec<webtable_tables::Table> = Vec::new(); // your corpus
//! let response = annotator.run(&AnnotateRequest::new(&tables).workers(4));
//! // response.annotations, response.timings, response.stats
//! ```

pub mod assignment;
pub mod baselines;
pub mod cache;
pub mod candidates;
pub mod config;
pub mod error;
pub mod features;
pub mod infer;
pub mod model;
pub mod pipeline;
pub mod result;
pub mod session;
pub mod stream;
pub mod unique;
pub mod weights;
pub mod wire;

pub use assignment::{assign_unique, assignment_benefit};
pub use baselines::{lca, majority, majority_with_threshold, BaselineAnnotation};
pub use cache::{fingerprint_for, CellCandidateCache};
pub use candidates::{
    CandidateScratch, CellCandidates, ColumnCandidates, PairCandidates, RelLabel, TableCandidates,
};
pub use config::{AnnotatorConfig, CompatMode};
pub use error::Error;
pub use infer::{annotate_collective, annotate_simple};
pub use model::TableModel;
pub use pipeline::Annotator;
pub use result::{AnnotateStats, PhaseTimings, TableAnnotation};
pub use session::{AnnotateRequest, AnnotateResponse};
pub use stream::{AnnotateStream, StreamOptions};
pub use unique::enforce_unique_columns;
pub use webtable_text::{ExtendError, SnapshotError};
pub use weights::Weights;
pub use wire::{Json, WireAnnotateRequest, WireError};
