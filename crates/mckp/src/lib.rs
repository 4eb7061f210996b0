//! Multiple-Choice Knapsack Problem (MCKP) solvers.
//!
//! The Offloading Decision Manager of the DAC'14 paper reduces the task
//! selection problem (which tasks to offload, and with which estimated
//! worst-case response time) to an MCKP (§5.2, Eq. 5):
//!
//! ```text
//! max  Σ_i Σ_j x_{i,j} · G_i(r_{i,j})
//! s.t. Σ_i Σ_j x_{i,j} · w_{i,j} ≤ 1        (processor capacity, Thm. 3)
//!      Σ_j x_{i,j} = 1 for every task i      (exactly one choice per class)
//!      x_{i,j} ∈ {0, 1}
//! ```
//!
//! This crate implements the problem substrate and three solvers:
//!
//! * [`dp::DpSolver`] — the exact dynamic program the paper adopts from
//!   Dudzinski & Walukiewicz (1987), in its Pareto-frontier (list) form:
//!   optimal on the real-valued weights, with no grid rounding. Past a
//!   frontier of `resolution + 1` states it falls back to a weight grid
//!   whose weights are rounded **up**, so any returned selection is
//!   feasible for the true capacity.
//! * [`heu::HeuOeSolver`] — the HEU-OE greedy/exchange heuristic from
//!   Khan's thesis (1998): LP-dominance pruning, efficiency-ordered
//!   upgrades, and an opportunistic-exchange improvement pass.
//! * [`brute::BruteForceSolver`] — exhaustive enumeration for tiny
//!   instances (the testing oracle).
//!
//! All solvers implement the common [`Solver`] trait.
//!
//! # Example
//!
//! ```
//! use rto_mckp::{MckpInstance, Item, Solver};
//! use rto_mckp::dp::DpSolver;
//!
//! // Two classes; capacity 1.0.
//! let inst = MckpInstance::new(
//!     vec![
//!         vec![Item::new(0.2, 1.0), Item::new(0.6, 5.0)],
//!         vec![Item::new(0.3, 2.0), Item::new(0.7, 4.0)],
//!     ],
//!     1.0,
//! )?;
//! let sel = DpSolver::default().solve(&inst)?;
//! assert!(inst.selection_weight(&sel)? <= 1.0);
//! assert_eq!(inst.selection_profit(&sel)?, 7.0); // items (0.6,5) + (0.3,2)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod dp;
pub mod error;
pub mod heu;
pub mod instance;
pub mod lp;
pub mod solution;

pub use brute::BruteForceSolver;
pub use dp::{DpSolver, DpStats};
pub use error::SolveError;
pub use heu::HeuOeSolver;
pub use instance::{Item, MckpInstance};
pub use solution::Selection;

/// A solver for [`MckpInstance`]s.
///
/// Implementations must return a [`Selection`] that is **feasible**
/// (`selection_weight ≤ capacity`) whenever one exists, and
/// [`SolveError::Infeasible`] otherwise. Exact solvers additionally return
/// an optimal selection; heuristic ones document their approximation
/// behaviour.
pub trait Solver {
    /// Solves the instance.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] when no selection fits within the
    /// capacity.
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError>;

    /// A short human-readable solver name for reports.
    fn name(&self) -> &'static str;
}

impl<S: Solver + ?Sized> Solver for &S {
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        (**self).solve(instance)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<S: Solver + ?Sized> Solver for Box<S> {
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        (**self).solve(instance)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}
