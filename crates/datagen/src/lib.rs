//! # tsj-datagen
//!
//! Synthetic tree collections for the reproduction of *Scaling Similarity
//! Joins over Tree-Structured Data* (VLDB 2015): the Zaki-style random
//! generator with Table 1's parameters, the decay-factor (`Dz`) mutation
//! model of Yang et al., and statistical simulators standing in for the
//! Swissprot / Treebank / Sentiment datasets (see `docs/ARCHITECTURE.md`
//! §Substitutions).

#![warn(missing_docs)]

pub mod datasets;
pub mod grow;
pub mod mother;
pub mod mutate;

pub use datasets::{
    collection_stats, sentiment_like, swissprot_like, synthetic, synthetic_sized, treebank_like,
    CollectionStats, SyntheticParams,
};
pub use grow::{grow_tree, ShapeProfile};
pub use mother::{mother_collection, MotherSampler};
pub use mutate::{mutate, random_edit, random_edit_script};
