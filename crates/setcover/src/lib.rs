//! # wsn-setcover — weighted set covering for in-network aggregation
//!
//! Greedy aggregation (ICDCS 2002, §4.2–4.3) reduces two of its decisions to
//! the NP-hard *weighted set-covering problem*:
//!
//! 1. **Aggregate cost**: the energy cost of an outgoing aggregate is the
//!    minimum-weight cover of its items by the incoming aggregates, plus one
//!    transmission.
//! 2. **Truncation**: a neighbor is negatively reinforced when none of its
//!    aggregates is selected in the minimum-weight cover of the *sources*
//!    (after the event→source transformation of [`to_source_instance`]).
//!
//! This crate provides the greedy heuristic the paper chose
//! ([`greedy_cover`], worst-case ratio `ln d + 1`), an exact solver for
//! validation ([`exact_cover`]), and the transformation
//! ([`transformed_weight`], [`to_source_instance`]).
//!
//! # Examples
//!
//! The paper's Figure 4(a): node L receives S1 = {a1,a2,b1} (w=5),
//! S2 = {b1,b2} (w=6), S3 = {a2,b2} (w=7) and sends S1 ∪ S2 at cost
//! w1 + w2 + 1 = 12:
//!
//! ```
//! use wsn_setcover::{greedy_cover, CoverInstance};
//!
//! let mut inst = CoverInstance::new();
//! inst.add_subset(vec![0, 1, 2], 5.0);
//! inst.add_subset(vec![2, 3], 6.0);
//! inst.add_subset(vec![1, 3], 7.0);
//!
//! let cover = greedy_cover(&inst);
//! assert_eq!(cover.selected, vec![0, 1]);
//! let outgoing_cost = cover.weight + 1.0;
//! assert_eq!(outgoing_cost, 12.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod greedy;
mod instance;
mod transform;

pub use exact::{exact_cover, MAX_EXACT_ELEMENTS};
pub use greedy::{greedy_cover, Cover, GreedySolver};
pub use instance::{CoverInstance, DenseMapper, Subset};
pub use transform::{add_source_subset, to_source_instance, transformed_weight};
