//! # tsj-baselines
//!
//! The two state-of-the-art competitor joins from §2 of *Scaling Similarity
//! Joins over Tree-Structured Data* (VLDB 2015), plus the brute-force
//! ground truth:
//!
//! * [`str_join`] — `STR`, the traversal-string lower-bound join of Guha
//!   et al. with banded string edit distances;
//! * [`set_join`] — `SET`, the binary-branch distance join of Yang et al.
//!   (`BIB ≤ 5τ` filter);
//! * [`brute_force_join`] / [`brute_force_join_parallel`] — the `REL`
//!   oracle (size filter + exact TED for every pair);
//! * [`kailing_join`] — the histogram filter family of Kailing et al.
//!   (reference \[16\]), included as an extension baseline.
//!
//! All joins share the size-sorted sliding-window driver in [`common`] and
//! return [`tsj_ted::JoinOutcome`] with the same split-phase timing.

#![warn(missing_docs)]

pub mod bruteforce;
pub mod common;
pub mod kailing;
pub mod setjoin;
pub mod strjoin;

pub use bruteforce::{brute_force_join, brute_force_join_parallel};
pub use common::{filter_verify_join, SizeOrder};
pub use kailing::{kailing_join, Histograms};
pub use setjoin::{bib_distance, set_join, tree_branch_bag};
pub use strjoin::str_join;
