//! Fixture mckp crate: A4 interval-analysis seeds at deny severity.

pub mod dp;
pub mod seed;
pub mod shapes;
