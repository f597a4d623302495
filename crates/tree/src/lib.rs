//! # tsj-tree
//!
//! Rooted ordered labeled trees and their left-child right-sibling (LC-RS)
//! binary representation — the data-model substrate for the reproduction of
//! *Scaling Similarity Joins over Tree-Structured Data* (Tang, Cai &
//! Mamoulis, VLDB 2015).
//!
//! Provided here:
//!
//! * [`Tree`] / [`TreeBuilder`] — arena-based general trees (§2);
//! * [`Label`] / [`LabelInterner`] — interned labels with a reserved `ε`;
//! * [`BinaryTree`] — Knuth's LC-RS transformation and its inverse (§3.1);
//! * [`EditOp`] / [`apply_edit`] — the three node edit operations whose
//!   minimum count defines tree edit distance (§2);
//! * bracket-notation and XML-ish parsers ([`parse_bracket`],
//!   [`parse_xmlish`]);
//! * [`FxHashMap`]-style fast hash containers used across the workspace.

#![warn(missing_docs)]

pub mod binary;
pub mod edit;
pub mod error;
pub mod hash;
pub mod label;
pub mod parser;
pub mod tree;

pub use binary::{BinaryTree, Side};
pub use edit::{apply_edit, apply_edits, EditOp};
pub use error::{EditError, ParseError};
pub use hash::{table_bytes, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use label::{pack_twig, Label, LabelInterner};
pub use parser::{parse_bracket, parse_xmlish, to_bracket, to_outline};
pub use tree::{NodeId, Tree, TreeBuilder};
