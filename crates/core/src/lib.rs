//! # mpix-core
//!
//! The user-facing operator API — the analogue of Devito's `Operator`
//! (paper Listing 1):
//!
//! ```
//! use mpix_core::prelude::*;
//!
//! let mut ctx = Context::new();
//! let grid = Grid::new(&[4, 4], &[2.0, 2.0]);
//! let u = ctx.add_time_function("u", &grid, 2, 1);
//! let eq = Eq::new(u.dt(), u.laplace());                      // u_t = ∇²u
//! let stencil = eq.solve_for(&u.forward(), &ctx).unwrap();    // explicit update
//! let op = Operator::build(ctx, grid, vec![stencil]).unwrap();
//!
//! // Run on 4 simulated MPI ranks, zero changes to the "user code":
//! let out = op.run(&ApplyOptions::default().with_nt(1).with_ranks(4), |ws| {
//!     ws.field_data_mut("u", 0).fill_global_slice(&[1..3, 1..3], 1.0);
//! }, |ws| ws.gather("u"));
//! assert_eq!(out.results[0].len(), 16);
//! assert_eq!(out.summary.ranks, 4);   // per-rank PerfSummary rides along
//! ```
//!
//! `Operator::build` runs the full compilation pipeline of Fig. 1:
//! equation lowering → clustering → flop-reduction (parameter hoisting +
//! CSE) → halo-exchange detection → schedule tree → IET with HaloSpots.
//! `Operator::run` lowers the HaloSpots for the MPI mode selected in
//! [`ApplyOptions`] (basic / diagonal / full), executes the result on
//! every rank, and returns the extracted values together with a
//! cross-rank performance summary.

// Numerical kernels index several arrays with one loop variable; the
// clippy suggestion (iterators + zip) hurts clarity in stencil code.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod autotune;
pub mod operator;
pub mod serve;
pub mod workspace;

pub use autotune::TuneReport;
pub use operator::{Applied, ApplyOptions, BuildError, Operator};
pub use serve::{
    CacheSnapshot, Job, JobRecord, JobStatus, OperatorCache, OperatorKey, RankPool, RecordSink,
    ServeConfig, ServeReport, Server,
};
pub use workspace::Workspace;
// The backend vocabulary, so callers can select/enumerate backends
// without depending on mpix-codegen directly.
pub use mpix_codegen::{available_backends, default_backend, Backend, BackendError};
// The observability vocabulary, so downstream code needs only mpix-core.
pub use mpix_analysis::{AnalysisConfig, AnalysisReport};
pub use mpix_trace::{Diagnostic, PerfSummary, Section, Severity, TraceLevel, TraceReport};

/// Convenient glob imports for examples and downstream crates.
pub mod prelude {
    pub use crate::{Applied, ApplyOptions, Backend, Operator, PerfSummary, TraceLevel, Workspace};
    pub use mpix_comm::{CartComm, Comm, Universe};
    pub use mpix_dmp::{Decomposition, DistArray, HaloMode, SparsePoints};
    pub use mpix_symbolic::{Context, Eq, Expr, FieldHandle, Grid, Stagger};
}
