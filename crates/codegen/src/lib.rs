//! # mpix-codegen
//!
//! Code generation backends for the lowered IET:
//!
//! * [`cgen`] — a C emitter reproducing the style of the paper's
//!   generated code (Appendix B, Listing 11): precomputed parameters,
//!   the rotating-buffer time loop, OpenMP SIMD pragmas on the vector
//!   dimension, and halo-exchange call sites. Used for inspection and
//!   golden tests; the paper's JIT C compilation step is replaced by the
//!   executable backend below (see DESIGN.md).
//! * [`bytecode`] — compiles cluster statements into a compact
//!   register/stack program with precomputed array-offset tables — the
//!   portable backend (the default where the JIT cannot run) and the
//!   semantic oracle the other backends are verified against.
//! * [`jit`] — lowers the same compiled clusters to native x86-64 AVX
//!   machine code at runtime (the paper's JIT compilation step made
//!   real), bitwise-equivalent to the bytecode engine by construction.
//!   The default backend wherever the host can run it
//!   ([`default_backend`]).
//! * [`executor`] — runs the lowered IET on a rank: rotating time
//!   buffers, loop-blocked (and optionally multi-threaded — the "X" in
//!   MPI-X) space loops over DOMAIN/CORE/REMAINDER regions, and the
//!   three halo-exchange patterns from `mpix-dmp`.
//! * [`fpenv`] — the FTZ/DAZ guard every kernel thread runs under.
//! * [`backend`] — the seam tying them together: the [`Lowering`]
//!   trait, the [`ClusterKernel`]/[`BoundKernel`] launch surface, and the
//!   [`create_lowering`] factory that registers the three backends as
//!   selectable peers.

// Numerical kernels index several arrays with one loop variable; the
// clippy suggestion (iterators + zip) hurts clarity in stencil code.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod backend;
pub mod bytecode;
pub mod cgen;
pub mod executor;
pub mod fpenv;
pub mod jit;

pub use backend::{
    available_backends, create_lowering, default_backend, Backend, BackendError, BoundKernel,
    ClusterKernel, Launch, Lowering, BACKEND_NAMES,
};
pub use bytecode::{compile_cluster, fold_constants, fuse_cluster, CompiledCluster, Op};
pub use cgen::emit_c;
pub use executor::{exec_compiles, halo_tag_base, ExecOptions, FieldState, OperatorExec, SparseOp};
pub use fpenv::FpEnvGuard;
pub use jit::jit_modules_built;
