//! Fixture mckp crate: A4 interval-analysis seeds at deny severity.

pub mod branch_bound;
pub mod seed;
pub mod shapes;
