//! # dynamis-baselines — dynamic competitors from the paper's evaluation
//!
//! * [`DyArw`] — "the dynamic version DyARW of ARW \[14\], which also uses
//!   1-swaps to improve the size of independent sets on static graphs".
//!   Semantically equivalent to `DyOneSwap` (both maintain a 1-maximal
//!   set) but implemented, as in the original ARW code, over **sorted**
//!   adjacency with double-pointer merge scans — the ordered-structure
//!   maintenance the paper blames for its "little higher maintenance
//!   time" (§V-B).
//! * [`DgDis`] — reimplementation of the dependency-graph index approach
//!   of Zheng et al., ICDE 2019 (\[21\]): `DGOneDIS` builds its index from
//!   degree-one reductions, `DGTwoDIS` additionally from degree-two
//!   reductions; on the loss of a solution vertex the index is searched
//!   for a complementary set of at least the same size. The index is not
//!   rebuilt between updates, so dependency chains lengthen and the
//!   search cost grows with the number of updates — the degradation the
//!   paper's experiments document. This is an emulation from the
//!   published description (the authors' code is not public); the
//!   [`dgdis`] module doc records the substitution.
//! * [`MaximalOnly`] — maximality repair without any swap; the quality
//!   floor every swap-based method must beat.
//! * [`Restart`] — recompute-from-scratch with a static solver every
//!   `interval` updates; the strawman the introduction argues against,
//!   made measurable (see the `restart` ablation).

pub mod dgdis;
pub mod dyarw;
pub mod repair;
pub mod restart;

pub use dgdis::DgDis;
pub use dyarw::DyArw;
pub use repair::MaximalOnly;
pub use restart::{Restart, RestartSolver};
