//! # webtable-text
//!
//! Text machinery for the `webtable` system: tokenization, TFIDF weighting,
//! string/token-set similarity kernels, multi-measure similarity profiles,
//! and the inverted lemma index used for candidate generation (§4.2–§4.3 of
//! Limaye, Sarawagi, Chakrabarti; VLDB 2010).
//!
//! The paper's `f1`/`f2` features are vectors of similarity measures between
//! a mention (cell text / column header) and the lemmas of a catalog label;
//! [`StringSim`] is that vector, [`LemmaIndex`] produces the candidate sets.

pub mod engine;
pub mod index;
pub mod mmap;
pub mod segment;
pub mod sim;
pub mod snapshot;
pub mod tfidf;
pub mod tokenize;

pub use engine::{SimEngine, SimEngineBuilder, StringSim, TextDoc, SOFT_TFIDF_THRESHOLD};
pub use index::{
    ExtendError, IndexLayout, IndexedLemma, LemmaIndex, Match, ProbeMode, ProbeScratch, RefKind,
    DEFAULT_RESCORING_FACTOR,
};
pub use mmap::{Mapping, NumericSlice, SectionSource};
pub use segment::SegmentedIndex;
pub use snapshot::SnapshotError;
pub use tfidf::{cosine, soft_tfidf, soft_tfidf_with_oov, IdfTable, TokenWeight, WeightedVec};
pub use tokenize::{normalize, to_sorted_set, tokenize, Vocab};
