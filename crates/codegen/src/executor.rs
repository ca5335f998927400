//! The executable backend: runs a lowered IET on one rank.
//!
//! This module plays the role of the paper's JIT-compiled C code. It
//! walks the mode-lowered IET (see `mpix_ir::passes::lower_halo_spots`),
//! maintaining rotating time buffers, performing halo exchanges through
//! the `mpix-dmp` patterns, and executing each space loop's compiled
//! bytecode over the DOMAIN / CORE / REMAINDER boxes with loop blocking
//! and optional shared-memory threading (the "X" in MPI-X).

use std::collections::HashMap;
use std::time::Instant;

use mpix_comm::CartComm;
use mpix_dmp::regions::{box_len, region_box, remainder_boxes, BoxNd, Region};
use mpix_dmp::{DistArray, FullExchange, HaloExchange, HaloMode, SparsePoints};
use mpix_ir::iet::{Node, RegionKind};
use mpix_ir::iexpr::IExpr;
use mpix_ir::passes::MpiMode;
use mpix_san::San;
use mpix_symbolic::{Context, FieldId};
use mpix_trace::{Section, TraceLevel, TraceReport, Tracer};

use crate::backend::{create_lowering, Backend, BackendError, BoundKernel, ClusterKernel, Launch};
use crate::bytecode::{compile_cluster, fuse_cluster, powi, CompiledCluster, Op};
use crate::fpenv::FpEnvGuard;

/// Strip widths the lane-vectorized engine is monomorphized for.
pub const SUPPORTED_VECTOR_WIDTHS: [usize; 3] = [8, 16, 32];

/// Process-wide count of full operator lowerings
/// ([`OperatorExec::with_backend`] calls). The serve smoke harness
/// asserts this equals the number of *unique* operator cache keys — the
/// compile-once contract made countable.
static EXEC_COMPILES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many times this process has lowered an operator into kernels.
pub fn exec_compiles() -> u64 {
    EXEC_COMPILES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Validate a `vector_width` knob: `0`/`1` select the scalar
/// interpreter, the widths in [`SUPPORTED_VECTOR_WIDTHS`] the strip
/// engine. Anything else panics — silently degrading a job script's
/// requested width to scalar would be worse.
pub fn validate_vector_width(vw: usize) -> usize {
    assert!(
        vw <= 1 || SUPPORTED_VECTOR_WIDTHS.contains(&vw),
        "vector_width={vw}: expected 0/1 (scalar) or one of {SUPPORTED_VECTOR_WIDTHS:?}"
    );
    vw
}

/// Per-field runtime state: one [`DistArray`] per time buffer.
pub struct FieldState {
    pub field: FieldId,
    pub buffers: Vec<DistArray>,
}

impl FieldState {
    /// Allocate zeroed buffers for a field.
    pub fn new(
        field: FieldId,
        nbuffers: usize,
        decomp: std::sync::Arc<mpix_dmp::Decomposition>,
        coords: &[usize],
        halo: usize,
    ) -> FieldState {
        FieldState {
            field,
            buffers: (0..nbuffers)
                .map(|_| DistArray::new(std::sync::Arc::clone(&decomp), coords, halo))
                .collect(),
        }
    }

    /// Buffer index holding time level `t + toff`.
    pub fn buffer_index(&self, t: i64, toff: i32) -> usize {
        let nb = self.buffers.len() as i64;
        ((t + toff as i64) % nb + nb) as usize % nb as usize
    }
}

/// Sparse operations appended to every time step (sources/receivers).
pub enum SparseOp {
    /// Add `signal[t] * weights` into `field`'s `t + time_offset` buffer
    /// around each point (multilinear injection).
    Inject {
        field: FieldId,
        time_offset: i32,
        points: SparsePoints,
        /// One amplitude per time step, shared by all points.
        signal: Vec<f32>,
        /// Per-point scale factor (e.g. `dt²/m` at the source).
        scale: Vec<f32>,
    },
    /// Like `Inject`, but with an independent time trace per point
    /// (`traces[p][t]`) — the adjoint-source pattern of RTM/FWI, where
    /// every receiver injects its own residual trace.
    InjectTraces {
        field: FieldId,
        time_offset: i32,
        points: SparsePoints,
        traces: Vec<Vec<f32>>,
        scale: Vec<f32>,
    },
    /// Sample `field` at each point into `samples[t][p]` (NaN on ranks
    /// that do not own the point).
    Sample {
        field: FieldId,
        time_offset: i32,
        points: SparsePoints,
        samples: Vec<Vec<f32>>,
    },
}

/// Execution options — the runtime knobs of the paper's evaluation.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    pub mode: HaloMode,
    /// Loop-blocking tile edge for the two outermost space dims (0 = off).
    pub block: usize,
    /// Shared-memory worker threads per rank (the OpenMP analogue).
    pub threads: usize,
    /// Lane count of the strip-vectorized interpreter (the runtime
    /// analogue of the generated C's `#pragma omp simd`): each compiled
    /// op executes over `vector_width` contiguous innermost-loop points
    /// at once. `0`/`1` = scalar; supported widths are
    /// [`SUPPORTED_VECTOR_WIDTHS`]. Remainder points (inner extent not
    /// a multiple of the width) fall back to the scalar path, bitwise
    /// identically.
    pub vector_width: usize,
    /// Instrumentation level; at [`TraceLevel::Off`] (the default) the
    /// hooks cost one branch per span.
    pub trace: TraceLevel,
    /// Injected runtime bug for the sanitizer's mutant corpus
    /// (`tests/sanitizer.rs`). Shipped paths never set this.
    #[doc(hidden)]
    pub fault: Option<Fault>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: HaloMode::Basic,
            block: 0,
            threads: 1,
            vector_width: 0,
            trace: TraceLevel::Off,
            fault: None,
        }
    }
}

/// Fault injection for the sanitizer's runtime-mutant corpus: each
/// variant plants one concrete bug class into an otherwise-correct
/// execution, so `mpix-san` (and, for [`Fault::NoFlush`], the
/// floating-point environment test) can be tested against real executor
/// runs rather than synthetic event streams. Hidden because it exists only
/// for the test suite; nothing in the shipped pipeline sets it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Skip every halo exchange after the first timestep — the runtime
    /// face of a wrongly dropped/hoisted exchange decision.
    DropExchange,
    /// Skip the `HaloWait` drain after the first timestep (full mode):
    /// remainder regions then read halo boxes whose receives never
    /// completed.
    SkipHaloWait,
    /// Declare overlapping per-worker write slabs to the sanitizer (the
    /// partition a buggy chunking computation would produce — safe Rust
    /// makes the *actual* overlapping writes impossible here, so the
    /// declaration is what carries the bug).
    OverlapSlabs,
    /// Declare per-worker write slabs with a coverage gap.
    GapSlabs,
    /// Run kernels without the FTZ|DAZ guard ([`crate::fpenv`]), in
    /// whatever mode their thread inherited — a kernel thread the guard
    /// missed.
    NoFlush,
}

/// The FTZ|DAZ guard a kernel thread holds while it runs (none under
/// [`Fault::NoFlush`]).
fn fpenv_guard(fault: Option<Fault>) -> Option<FpEnvGuard> {
    (fault != Some(Fault::NoFlush)).then(FpEnvGuard::enter)
}

/// Map the compiler's mode enum onto the runtime's.
pub fn mpi_mode_of(mode: HaloMode) -> MpiMode {
    match mode {
        HaloMode::Basic => MpiMode::Basic,
        HaloMode::Diagonal => MpiMode::Diagonal,
        HaloMode::Full => MpiMode::Full,
    }
}

/// Timing breakdown of one `run` (per rank).
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    pub compute_secs: f64,
    pub halo_secs: f64,
    pub points_updated: u64,
    /// Per-section trace, present when the run's `trace` level was not
    /// [`TraceLevel::Off`].
    pub trace: Option<TraceReport>,
}

impl ExecStats {
    /// Total wall time attributed to this rank's kernel work.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.halo_secs
    }
    /// Local throughput in GPts/s (points this rank updated per second).
    pub fn gpts(&self) -> f64 {
        if self.total_secs() == 0.0 {
            0.0
        } else {
            self.points_updated as f64 / self.total_secs() / 1e9
        }
    }
    /// Fraction of time spent in halo exchanges.
    pub fn halo_fraction(&self) -> f64 {
        if self.total_secs() == 0.0 {
            0.0
        } else {
            self.halo_secs / self.total_secs()
        }
    }
}

/// A compiled, runnable operator (one per `Operator::compile`).
pub struct OperatorExec {
    iet: Node,
    /// Parameter slot -> defining expression (grid-invariant).
    param_defs: Vec<(usize, IExpr)>,
    /// Compiled bodies, keyed by space-loop order of appearance.
    compiled: Vec<CompiledCluster>,
    /// One executable kernel per compiled body, produced by the selected
    /// backend's [`crate::backend::Lowering`].
    kernels: Vec<Box<dyn ClusterKernel>>,
    /// Which backend compiled the kernels.
    backend: Backend,
    /// Number of time buffers per field id.
    nbuffers: Vec<usize>,
    /// Allocated halo per field id.
    halos: Vec<usize>,
}

impl OperatorExec {
    /// Precompile every space loop in the IET with the bytecode
    /// backend.
    pub fn new(iet: Node, ctx: &Context) -> OperatorExec {
        Self::with_backend(iet, ctx, Backend::Bytecode)
            .expect("bytecode backend is always available")
    }

    /// Precompile every space loop in the IET through the chosen
    /// backend's lowering.
    pub fn with_backend(
        iet: Node,
        ctx: &Context,
        backend: Backend,
    ) -> Result<OperatorExec, BackendError> {
        let lowering = create_lowering(backend)?;
        EXEC_COMPILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut compiled = Vec::new();
        collect_compiled(&iet, &mut compiled);
        let kernels = compiled.iter().map(|cc| lowering.compile(cc)).collect();
        let param_defs = match &iet {
            Node::Callable { params, .. } => params.clone(),
            _ => Vec::new(),
        };
        let nbuffers = ctx.fields().iter().map(|f| f.time_buffers()).collect();
        let halos = ctx.fields().iter().map(|f| f.halo() as usize).collect();
        Ok(OperatorExec {
            iet,
            param_defs,
            compiled,
            kernels,
            backend,
            nbuffers,
            halos,
        })
    }

    pub fn iet(&self) -> &Node {
        &self.iet
    }
    /// The backend whose kernels this executable runs.
    pub fn backend(&self) -> Backend {
        self.backend
    }
    pub fn compiled_clusters(&self) -> &[CompiledCluster] {
        &self.compiled
    }
    pub fn nbuffers(&self) -> &[usize] {
        &self.nbuffers
    }
    pub fn halos(&self) -> &[usize] {
        &self.halos
    }

    /// Total natively-compiled per-geometry modules held across this
    /// executable's kernels (0 for interpreter backends). Stable across
    /// repeated runs of the same geometry — the compile-once contract.
    pub fn cached_native_modules(&self) -> usize {
        self.kernels.iter().map(|k| k.cached_modules()).sum()
    }

    /// How many of this executable's clusters have run on the bytecode
    /// fallback instead of the backend's own code, over every run so
    /// far (0 for interpreter backends).
    pub fn fallback_clusters(&self) -> usize {
        self.kernels.iter().filter(|k| k.fell_back()).count()
    }

    /// Run the operator for time steps `t0 .. t0 + nt`.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        cart: &CartComm,
        fields: &mut [FieldState],
        scalars: &HashMap<String, f32>,
        sparse: &mut [SparseOp],
        t0: i64,
        nt: i64,
        opts: &ExecOptions,
    ) -> ExecStats {
        // Everything below — parameters, kernels, halo unpacking, sparse
        // operators — runs with subnormals flushed; the caller's mode
        // comes back when the guard drops.
        let _fpenv = fpenv_guard(opts.fault);
        // Evaluate precomputed parameters (r0 = 1/dt, ...).
        let max_param = self
            .param_defs
            .iter()
            .map(|(i, _)| i + 1)
            .max()
            .unwrap_or(0);
        let mut params = vec![0.0f32; max_param];
        for (i, def) in &self.param_defs {
            params[*i] = eval_invariant(def, scalars, &params);
        }
        // At Full level the communicator logs every message so the report
        // can break halo traffic down per peer/tag.
        if opts.trace == TraceLevel::Full {
            cart.comm().set_msg_log(true);
        }
        let comm_before = if opts.trace.enabled() {
            Some(cart.comm().stats())
        } else {
            None
        };
        let mut st = ExecState {
            cart,
            fields,
            scalars,
            params,
            opts: opts.clone(),
            t: t0,
            loop_idx: 0,
            pending: HashMap::new(),
            full_ex: HashMap::new(),
            exchangers: HashMap::new(),
            stats: ExecStats::default(),
            tracer: Tracer::new(opts.trace),
        };
        let body = match &self.iet {
            Node::Callable { body, .. } => body,
            other => std::slice::from_ref(other),
        };
        for n in body {
            self.exec_node(n, &mut st, sparse, t0, nt);
        }
        let ExecState {
            mut stats, tracer, ..
        } = st;
        if opts.trace.enabled() {
            let messages = if opts.trace == TraceLevel::Full {
                cart.comm().set_msg_log(false);
                cart.comm().take_msg_log()
            } else {
                Vec::new()
            };
            // Allocation/copy deltas over this run, so the report can
            // verify the persistent-plan zero-allocation contract.
            let before = comm_before.unwrap();
            let after = cart.comm().stats();
            stats.trace = Some(
                tracer
                    .finish(cart.comm().rank(), messages)
                    .with_comm_counters(
                        after.bufs_allocated - before.bufs_allocated,
                        after.bytes_copied - before.bytes_copied,
                    ),
            );
        }
        stats
    }

    fn exec_node(
        &self,
        n: &Node,
        st: &mut ExecState<'_>,
        sparse: &mut [SparseOp],
        t0: i64,
        nt: i64,
    ) {
        match n {
            Node::TimeLoop { body } => {
                let first_loop = self.loops_before_time_loop();
                for t in t0..t0 + nt {
                    st.t = t;
                    st.loop_idx = first_loop;
                    st.tracer.begin_step(t);
                    for c in body {
                        self.exec_node(c, st, sparse, t0, nt);
                    }
                    self.exec_sparse(st, sparse);
                }
            }
            Node::HaloUpdate {
                exchanges,
                is_async,
            } => {
                // Injected mutant (tests only): drop every exchange after
                // the first step — the runtime face of a bad drop/hoist
                // decision, which `mpix-san`'s stale-halo detector owns.
                if st.opts.fault == Some(Fault::DropExchange) && st.t > t0 {
                    return;
                }
                let start = Instant::now();
                if *is_async {
                    for x in exchanges {
                        st.begin_async(x);
                    }
                } else {
                    for x in exchanges {
                        st.sync_exchange(x);
                    }
                }
                st.stats.halo_secs += start.elapsed().as_secs_f64();
            }
            Node::HaloWait { exchanges } => {
                // Injected mutant (tests only): skip the drain, so
                // remainder regions read halo boxes whose receives never
                // completed.
                if st.opts.fault == Some(Fault::SkipHaloWait) && st.t > t0 {
                    return;
                }
                let start = Instant::now();
                for x in exchanges {
                    st.finish_async(x);
                }
                st.stats.halo_secs += start.elapsed().as_secs_f64();
            }
            Node::SpaceLoop {
                cluster, region, ..
            } => {
                let loop_idx = st.loop_idx;
                st.loop_idx += 1;
                let start = Instant::now();
                let radius = cluster.max_radius(cluster.ndim());
                let max_r = radius.iter().copied().max().unwrap_or(0);
                self.exec_space_loop(loop_idx, *region, max_r, st);
                let elapsed = start.elapsed().as_secs_f64();
                st.stats.compute_secs += elapsed;
                let section = match region {
                    RegionKind::Remainder => Section::Remainder,
                    _ => Section::Compute,
                };
                st.tracer.add_secs(section, elapsed);
            }
            Node::Section { body, .. } | Node::HaloSpot { body, .. } => {
                for c in body {
                    self.exec_node(c, st, sparse, t0, nt);
                }
            }
            Node::Callable { body, .. } => {
                for c in body {
                    self.exec_node(c, st, sparse, t0, nt);
                }
            }
        }
    }

    /// Number of SpaceLoops that appear before the time loop (hoisted
    /// section) — used to reset the per-iteration loop counter.
    fn loops_before_time_loop(&self) -> usize {
        fn count_until_time(nodes: &[Node], n: &mut usize) -> bool {
            for node in nodes {
                match node {
                    Node::TimeLoop { .. } => return true,
                    Node::SpaceLoop { .. } => *n += 1,
                    Node::Callable { body, .. }
                    | Node::Section { body, .. }
                    | Node::HaloSpot { body, .. }
                        if count_until_time(body, n) =>
                    {
                        return true;
                    }
                    _ => {}
                }
            }
            false
        }
        let mut n = 0;
        count_until_time(std::slice::from_ref(&self.iet), &mut n);
        n
    }

    fn exec_sparse(&self, st: &mut ExecState<'_>, sparse: &mut [SparseOp]) {
        let step = st.t;
        for (si, op) in sparse.iter_mut().enumerate() {
            let section = match op {
                SparseOp::Inject { .. } | SparseOp::InjectTraces { .. } => Section::Source,
                SparseOp::Sample { .. } => Section::Receiver,
            };
            let sp = st.tracer.begin(section);
            match op {
                SparseOp::Inject {
                    field,
                    time_offset,
                    points,
                    signal,
                    scale,
                } => {
                    let idx = (step as usize).min(signal.len().saturating_sub(1));
                    let amp = signal.get(idx).copied().unwrap_or(0.0);
                    let fs = &mut st.fields[field.0 as usize];
                    let b = fs.buffer_index(step, *time_offset);
                    let arr = &mut fs.buffers[b];
                    let coords = arr.coords().to_vec();
                    let decomp = arr.decomp().clone();
                    for p in 0..points.len() {
                        if points.is_owner(p, &decomp, &coords) {
                            let s = scale.get(p).copied().unwrap_or(1.0);
                            points.inject(p, (amp * s) as f64, arr);
                        }
                    }
                }
                SparseOp::InjectTraces {
                    field,
                    time_offset,
                    points,
                    traces,
                    scale,
                } => {
                    let fs = &mut st.fields[field.0 as usize];
                    let b = fs.buffer_index(step, *time_offset);
                    let arr = &mut fs.buffers[b];
                    let coords = arr.coords().to_vec();
                    let decomp = arr.decomp().clone();
                    for p in 0..points.len() {
                        if points.is_owner(p, &decomp, &coords) {
                            let idx = (step as usize).min(traces[p].len().saturating_sub(1));
                            let amp = traces[p].get(idx).copied().unwrap_or(0.0);
                            let s = scale.get(p).copied().unwrap_or(1.0);
                            points.inject(p, (amp * s) as f64, arr);
                        }
                    }
                }
                SparseOp::Sample {
                    field,
                    time_offset,
                    points,
                    samples,
                } => {
                    let fs = &st.fields[field.0 as usize];
                    let b = fs.buffer_index(step, *time_offset);
                    let arr = &fs.buffers[b];
                    let mut row = vec![f32::NAN; points.len()];
                    for p in 0..points.len() {
                        let tag =
                            mpix_comm::comm::RESERVED_TAG_BASE / 2 + (si * points.len() + p) as u32;
                        if let Some(v) = points.interpolate(p, arr, st.cart, tag) {
                            row[p] = v as f32;
                        }
                    }
                    samples.push(row);
                }
            }
            st.tracer.end(sp);
        }
    }

    /// Execute one compiled cluster over the chosen region through the
    /// backend-selected kernel.
    fn exec_space_loop(
        &self,
        loop_idx: usize,
        region: RegionKind,
        radius: usize,
        st: &mut ExecState<'_>,
    ) {
        let cc = &self.compiled[loop_idx];
        let kernel = &*self.kernels[loop_idx];
        // Local (owned) shape — identical across fields.
        let some_field = cc.streams[0].0;
        let local = st.fields[some_field.0 as usize].buffers[0]
            .local_shape()
            .to_vec();
        let boxes: Vec<BoxNd> = match region {
            RegionKind::Domain => vec![region_box(Region::Domain, &local, 0, 0)],
            RegionKind::Core => vec![region_box(Region::Core, &local, 0, radius)],
            RegionKind::Remainder => remainder_boxes(&local, 0, radius),
        };

        // Resolve streams: buffer selection and per-stream geometry.
        let nstreams = cc.streams.len();
        let mut strides: Vec<Vec<usize>> = Vec::with_capacity(nstreams);
        let mut halos: Vec<usize> = Vec::with_capacity(nstreams);
        let mut keys: Vec<(usize, usize)> = Vec::with_capacity(nstreams);
        for &(f, toff) in &cc.streams {
            let fs = &st.fields[f.0 as usize];
            let b = fs.buffer_index(st.t, toff);
            strides.push(fs.buffers[b].strides().to_vec());
            halos.push(fs.buffers[b].halo());
            keys.push((f.0 as usize, b));
        }
        // No two streams may alias the same buffer (would make the moved
        // buffer list ambiguous).
        for i in 0..nstreams {
            for j in i + 1..nstreams {
                assert_ne!(
                    keys[i], keys[j],
                    "two streams alias one buffer: check time offsets vs buffer count"
                );
            }
        }
        // Shadow-state hooks: written streams dirty their owned region;
        // read streams with a nonzero stencil radius touch halo points in
        // every region except the core (which is halo-free by
        // construction), so those reads must observe a fresh exchange.
        if let Some(san) = st.cart.comm().san() {
            let rank = st.cart.rank();
            for (slot, key) in keys.iter().enumerate() {
                let arr_id = st.fields[key.0].buffers[key.1].shadow_id();
                if cc.written[slot] {
                    san.owned_write(rank, arr_id);
                } else {
                    let slot_radius = cc
                        .offsets
                        .iter()
                        .filter(|(s, _)| *s as usize == slot)
                        .flat_map(|(_, deltas)| deltas.iter().map(|d| d.unsigned_abs() as usize))
                        .max()
                        .unwrap_or(0);
                    if slot_radius > 0 && region != RegionKind::Core {
                        san.halo_read(rank, arr_id, st.t);
                    }
                }
            }
        }

        // Resolve offsets to linear deltas.
        let resolved: Vec<isize> = cc
            .offsets
            .iter()
            .map(|(slot, deltas)| {
                deltas
                    .iter()
                    .zip(&strides[*slot as usize])
                    .map(|(&d, &s)| d as isize * s as isize)
                    .sum()
            })
            .collect();
        // Scalar values.
        let scalar_vals: Vec<f32> = cc
            .scalars
            .iter()
            .map(|name| {
                *st.scalars
                    .get(name)
                    .unwrap_or_else(|| panic!("missing runtime scalar {name:?}"))
            })
            .collect();

        // Move buffers out (no aliasing per the check above).
        let mut moved: Vec<Vec<f32>> = keys
            .iter()
            .map(|&(f, b)| std::mem::take(st.fields[f].buffers[b].raw_vec_mut()))
            .collect();

        let nthreads = st.opts.threads.max(1);
        let vw = validate_vector_width(st.opts.vector_width);
        let launch = Launch {
            cc,
            strides: &strides,
            halos: &halos,
            resolved: &resolved,
            scalars: &scalar_vals,
            params: &st.params,
            block: st.opts.block,
            vw,
        };
        let bound = kernel.bind(&launch);
        let mut points = 0u64;
        for b in &boxes {
            if b.iter().any(|r| r.is_empty()) {
                continue;
            }
            points += box_len(b) as u64;
            if nthreads <= 1 || b[0].len() < 2 * nthreads {
                let mut slices: Vec<&mut [f32]> =
                    moved.iter_mut().map(|v| v.as_mut_slice()).collect();
                bound.exec_box(b, &mut slices);
            } else {
                exec_box_threaded(
                    &*bound,
                    &launch,
                    b,
                    &mut moved,
                    nthreads,
                    st.cart.comm().san().map(|a| a.as_ref()),
                    st.cart.rank(),
                    st.opts.fault,
                );
            }
        }
        st.stats.points_updated += points;

        // Move buffers back.
        for (k, v) in keys.iter().zip(moved) {
            *st.fields[k.0].buffers[k.1].raw_vec_mut() = v;
        }
    }
}

pub(crate) fn collect_compiled(n: &Node, out: &mut Vec<CompiledCluster>) {
    match n {
        // Every compiled body runs through the superinstruction fusion
        // pass — fusion is bitwise-neutral, so there is no scalar/fused
        // configuration axis to test against.
        Node::SpaceLoop { cluster, .. } => out.push(fuse_cluster(compile_cluster(cluster))),
        Node::Callable { body, .. }
        | Node::TimeLoop { body }
        | Node::HaloSpot { body, .. }
        | Node::Section { body, .. } => body.iter().for_each(|c| collect_compiled(c, out)),
        _ => {}
    }
}

/// Evaluate a grid-invariant expression (parameter definitions).
pub fn eval_invariant(e: &IExpr, scalars: &HashMap<String, f32>, params: &[f32]) -> f32 {
    match e {
        IExpr::Const(c) => *c as f32,
        IExpr::Sym(s) => *scalars
            .get(s)
            .unwrap_or_else(|| panic!("missing runtime scalar {s:?}")),
        IExpr::Param(i) => params[*i],
        IExpr::Add(xs) => xs.iter().map(|x| eval_invariant(x, scalars, params)).sum(),
        IExpr::Mul(xs) => xs
            .iter()
            .map(|x| eval_invariant(x, scalars, params))
            .product(),
        IExpr::Pow(b, n) => powi(eval_invariant(b, scalars, params), *n),
        IExpr::Func(fx, b) => fx.apply_f32(eval_invariant(b, scalars, params)),
        IExpr::Load(_) | IExpr::Temp(_) => panic!("not grid-invariant"),
    }
}

// ---------------------------------------------------------------------------
// Inner loops
// ---------------------------------------------------------------------------

/// Execute the compiled body over every point of `bx` (owned-local
/// coordinates). Applies loop blocking on the outermost two dimensions
/// when `block > 0`. This is the bytecode backend's whole-buffer entry
/// point (`backend::BytecodeLaunch` delegates here).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_box(
    cc: &CompiledCluster,
    bx: &BoxNd,
    buffers: &mut [&mut [f32]],
    strides: &[Vec<usize>],
    halos: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
    block: usize,
    vw: usize,
) {
    let nd = bx.len();
    if block > 0 && nd >= 2 {
        // Tile the two outermost dims (cache blocking; the innermost
        // stays contiguous for vectorization, as in the generated C).
        let (r0, r1) = (bx[0].clone(), bx[1].clone());
        let mut x0 = r0.start;
        while x0 < r0.end {
            let x1 = (x0 + block).min(r0.end);
            let mut y0 = r1.start;
            while y0 < r1.end {
                let y1 = (y0 + block).min(r1.end);
                let mut tile = bx.clone();
                tile[0] = x0..x1;
                tile[1] = y0..y1;
                exec_box_flat(
                    cc, &tile, buffers, strides, halos, resolved, scalars, params, vw,
                );
                y0 = y1;
            }
            x0 = x1;
        }
    } else {
        exec_box_flat(
            cc, bx, buffers, strides, halos, resolved, scalars, params, vw,
        );
    }
}

/// Unblocked execution: iterate outer dims with an odometer, run the
/// contiguous innermost dimension with incrementing bases — in strips of
/// `vw` lanes when a vector width is selected, point-by-point otherwise.
#[allow(clippy::too_many_arguments)]
fn exec_box_flat(
    cc: &CompiledCluster,
    bx: &BoxNd,
    buffers: &mut [&mut [f32]],
    strides: &[Vec<usize>],
    halos: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
    vw: usize,
) {
    if vw > 1 {
        let mut acc = FlatAccess(buffers);
        exec_strips_box(
            vw, cc, bx, &mut acc, strides, halos, resolved, scalars, params,
        );
        return;
    }
    let nd = bx.len();
    let nstreams = cc.streams.len();
    let inner = bx[nd - 1].clone();
    if inner.is_empty() {
        return;
    }
    let mut outer: Vec<usize> = bx[..nd - 1].iter().map(|r| r.start).collect();
    if bx[..nd - 1].iter().any(|r| r.is_empty()) {
        return;
    }
    let mut bases = vec![0usize; nstreams];
    let mut temps = vec![0.0f32; cc.num_temps];
    let mut stack = vec![0.0f32; cc.max_stack.max(4)];
    loop {
        // Base linear index per stream at the inner-loop start.
        for s in 0..nstreams {
            let mut base = 0usize;
            for d in 0..nd - 1 {
                base += (outer[d] + halos[s]) * strides[s][d];
            }
            base += (inner.start + halos[s]) * strides[s][nd - 1];
            bases[s] = base;
        }
        for _ in inner.clone() {
            eval_point_fast(
                cc, buffers, &bases, resolved, scalars, params, &mut temps, &mut stack,
            );
            for b in bases.iter_mut() {
                *b += 1; // innermost stride is 1 for every stream
            }
        }
        // Odometer over outer dims.
        if nd == 1 {
            return;
        }
        let mut d = nd - 1;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            outer[d] += 1;
            if outer[d] < bx[d].end {
                break;
            }
            outer[d] = bx[d].start;
        }
    }
}

/// Threaded execution: split the outermost dimension across workers. The
/// written buffers are *not* split (each worker re-binds the full
/// buffers), so this function moves buffers into thread-disjoint slabs:
/// it partitions dimension 0, and workers only touch padded rows inside
/// their slab for written streams. Reads may cross slabs, so read-only
/// streams are shared immutably; written streams are sliced by the
/// worker's padded row range.
#[allow(clippy::too_many_arguments)]
fn exec_box_threaded(
    kernel: &dyn BoundKernel,
    l: &Launch<'_>,
    bx: &BoxNd,
    moved: &mut [Vec<f32>],
    nthreads: usize,
    san: Option<&San>,
    rank: usize,
    fault: Option<Fault>,
) {
    let cc = l.cc;
    let (strides, halos) = (l.strides, l.halos);
    let nd = bx.len();
    let r0 = bx[0].clone();
    let chunk = r0.len().div_ceil(nthreads);
    let nstreams_total = moved.len();

    // Partition written buffers into per-worker slabs along dim 0;
    // read-only buffers are shared.
    enum Binding<'a> {
        Shared(&'a [f32]),
        // One slab per worker: (slice, linear offset of slice start).
        Slabs(Vec<(&'a mut [f32], usize)>),
    }
    let mut bindings: Vec<Binding<'_>> = Vec::with_capacity(moved.len());
    for (s, buf) in moved.iter_mut().enumerate() {
        if cc.written[s] {
            let mut slabs = Vec::with_capacity(nthreads);
            let mut rest: &mut [f32] = buf.as_mut_slice();
            let mut consumed = 0usize;
            let mut x = r0.start;
            for _ in 0..nthreads {
                let xe = (x + chunk).min(r0.end);
                // Worker covers padded rows [x + halo, xe + halo): linear
                // [ (x+halo)*stride0 , (xe+halo)*stride0 ).
                let lo = (x + halos[s]) * strides[s][0];
                let hi = (xe + halos[s]) * strides[s][0];
                let (_, tail) = rest.split_at_mut(lo - consumed);
                let (slab, tail2) = tail.split_at_mut(hi - lo);
                slabs.push((slab, lo));
                rest = tail2;
                consumed = hi;
                x = xe;
                if x >= r0.end {
                    break;
                }
            }
            bindings.push(Binding::Slabs(slabs));
        } else {
            bindings.push(Binding::Shared(buf.as_slice()));
        }
    }
    // Distribute slabs to workers.
    struct WorkerCtx<'a> {
        reads: Vec<Option<&'a [f32]>>,
        writes: Vec<Option<(&'a mut [f32], usize)>>,
        range0: std::ops::Range<usize>,
    }
    let mut workers: Vec<WorkerCtx<'_>> = Vec::new();
    {
        let mut x = r0.start;
        let mut w = 0usize;
        while x < r0.end {
            let xe = (x + chunk).min(r0.end);
            workers.push(WorkerCtx {
                reads: vec![None; nstreams_total],
                writes: (0..nstreams_total).map(|_| None).collect(),
                range0: x..xe,
            });
            x = xe;
            w += 1;
        }
        let _ = w;
    }
    for (s, b) in bindings.into_iter().enumerate() {
        match b {
            Binding::Shared(sl) => {
                for wk in workers.iter_mut() {
                    wk.reads[s] = Some(sl);
                }
            }
            Binding::Slabs(slabs) => {
                for (wk, slab) in workers.iter_mut().zip(slabs) {
                    wk.writes[s] = Some(slab);
                }
            }
        }
    }

    // Declare the dim-0 slab partition to the sanitizer before spawning:
    // overlapping or gapped declarations are exactly the write-conflict /
    // missed-coverage bugs the slab detector owns. The injected fault
    // mutates only the *declared* ranges, never the real split, so the
    // numerics stay correct while the detector must still fire.
    if let Some(san) = san {
        let mut declared: Vec<(usize, usize)> = workers
            .iter()
            .map(|wk| (wk.range0.start, wk.range0.end))
            .collect();
        match fault {
            Some(Fault::OverlapSlabs) => {
                for i in 0..declared.len().saturating_sub(1) {
                    declared[i].1 += 1;
                }
            }
            Some(Fault::GapSlabs) => {
                for d in declared.iter_mut().skip(1) {
                    d.0 += 1;
                }
            }
            _ => {}
        }
        san.slab_partition(rank, (r0.start, r0.end), &declared);
    }

    std::thread::scope(|scope| {
        for wk in workers.into_iter() {
            scope.spawn(move || {
                // A worker's mode must not depend on what its thread
                // happened to inherit: enter FTZ|DAZ explicitly.
                let _fpenv = fpenv_guard(fault);
                let mut sub = bx.to_vec();
                sub[0] = wk.range0.clone();
                let mut reads = wk.reads;
                let mut writes = wk.writes;
                kernel.exec_box_mixed(&sub, &mut reads, &mut writes);
            });
        }
    });
    let _ = nd;
}

/// Like [`exec_box`] but with per-stream read/write bindings (threaded
/// path). Written streams index relative to their slab offset. This is
/// the bytecode backend's split-binding entry point
/// (`backend::BytecodeLaunch` delegates here).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_box_mixed(
    cc: &CompiledCluster,
    bx: &BoxNd,
    reads: &mut [Option<&[f32]>],
    writes: &mut [Option<(&mut [f32], usize)>],
    strides: &[Vec<usize>],
    halos: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
    block: usize,
    vw: usize,
) {
    // Reuse the tiling driver by flattening through a closure-free copy
    // of exec_box_flat with binding-aware loads/stores.
    let nd = bx.len();
    let tiles: Vec<BoxNd> = if block > 0 && nd >= 2 {
        let mut v = Vec::new();
        let (r0, r1) = (bx[0].clone(), bx[1].clone());
        let mut x0 = r0.start;
        while x0 < r0.end {
            let x1 = (x0 + block).min(r0.end);
            let mut y0 = r1.start;
            while y0 < r1.end {
                let y1 = (y0 + block).min(r1.end);
                let mut t = bx.clone();
                t[0] = x0..x1;
                t[1] = y0..y1;
                v.push(t);
                y0 = y1;
            }
            x0 = x1;
        }
        v
    } else {
        vec![bx.clone()]
    };

    let nstreams = cc.streams.len();
    let mut temps = vec![0.0f32; cc.num_temps];
    let mut stack = vec![0.0f32; cc.max_stack.max(4)];
    let mut bases = vec![0usize; nstreams];
    for tile in tiles {
        if tile.iter().any(|r| r.is_empty()) {
            continue;
        }
        if vw > 1 {
            let mut acc = MixedAccess {
                reads: &*reads,
                writes: &mut *writes,
            };
            exec_strips_box(
                vw, cc, &tile, &mut acc, strides, halos, resolved, scalars, params,
            );
            continue;
        }
        let inner = tile[nd - 1].clone();
        let mut outer: Vec<usize> = tile[..nd - 1].iter().map(|r| r.start).collect();
        loop {
            for s in 0..nstreams {
                let mut base = 0usize;
                for d in 0..nd - 1 {
                    base += (outer[d] + halos[s]) * strides[s][d];
                }
                base += (inner.start + halos[s]) * strides[s][nd - 1];
                bases[s] = base;
            }
            for _ in inner.clone() {
                eval_point_mixed(
                    cc, reads, writes, &bases, resolved, scalars, params, &mut temps, &mut stack,
                );
                for b in bases.iter_mut() {
                    *b += 1;
                }
            }
            if nd == 1 {
                break;
            }
            let mut d = nd - 1;
            let mut done = false;
            loop {
                if d == 0 {
                    done = true;
                    break;
                }
                d -= 1;
                outer[d] += 1;
                if outer[d] < tile[d].end {
                    break;
                }
                outer[d] = tile[d].start;
            }
            if done {
                break;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_point_fast(
    cc: &CompiledCluster,
    buffers: &mut [&mut [f32]],
    bases: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
    temps: &mut [f32],
    stack: &mut [f32],
) {
    let mut sp = 0usize;
    for op in &cc.ops {
        match *op {
            Op::Const(i) => {
                stack[sp] = cc.consts[i as usize];
                sp += 1;
            }
            Op::Scalar(i) => {
                stack[sp] = scalars[i as usize];
                sp += 1;
            }
            Op::Param(i) => {
                stack[sp] = params[i as usize];
                sp += 1;
            }
            Op::Temp(i) => {
                stack[sp] = temps[i as usize];
                sp += 1;
            }
            Op::SetTemp(i) => {
                sp -= 1;
                temps[i as usize] = stack[sp];
            }
            Op::Load { stream, off } => {
                let idx = bases[stream as usize] as isize + resolved[off as usize];
                stack[sp] = buffers[stream as usize][idx as usize];
                sp += 1;
            }
            Op::Store { stream } => {
                sp -= 1;
                buffers[stream as usize][bases[stream as usize]] = stack[sp];
            }
            Op::Add => {
                sp -= 1;
                stack[sp - 1] += stack[sp];
            }
            Op::Mul => {
                sp -= 1;
                stack[sp - 1] *= stack[sp];
            }
            Op::Pow(n) => {
                stack[sp - 1] = powi(stack[sp - 1], n);
            }
            Op::Call(fx) => {
                stack[sp - 1] = fx.apply_f32(stack[sp - 1]);
            }
            Op::MulAdd => {
                sp -= 2;
                stack[sp - 1] += stack[sp] * stack[sp + 1];
            }
            Op::LoadMul { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let idx = bases[stream as usize] as isize + resolved[off as usize];
                stack[sp] = c * buffers[stream as usize][idx as usize];
                sp += 1;
            }
            Op::LoadMulAdd { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let idx = bases[stream as usize] as isize + resolved[off as usize];
                stack[sp - 1] += c * buffers[stream as usize][idx as usize];
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_point_mixed(
    cc: &CompiledCluster,
    reads: &[Option<&[f32]>],
    writes: &mut [Option<(&mut [f32], usize)>],
    bases: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
    temps: &mut [f32],
    stack: &mut [f32],
) {
    let mut sp = 0usize;
    for op in &cc.ops {
        match *op {
            Op::Const(i) => {
                stack[sp] = cc.consts[i as usize];
                sp += 1;
            }
            Op::Scalar(i) => {
                stack[sp] = scalars[i as usize];
                sp += 1;
            }
            Op::Param(i) => {
                stack[sp] = params[i as usize];
                sp += 1;
            }
            Op::Temp(i) => {
                stack[sp] = temps[i as usize];
                sp += 1;
            }
            Op::SetTemp(i) => {
                sp -= 1;
                temps[i as usize] = stack[sp];
            }
            Op::Load { stream, off } => {
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                stack[sp] = match (&reads[s], &writes[s]) {
                    (Some(r), _) => r[idx],
                    (None, Some((w, base_off))) => w[idx - *base_off],
                    (None, None) => unreachable!("unbound stream"),
                };
                sp += 1;
            }
            Op::Store { stream } => {
                sp -= 1;
                let s = stream as usize;
                let (w, base_off) = writes[s].as_mut().expect("store to unbound stream");
                w[bases[s] - *base_off] = stack[sp];
            }
            Op::Add => {
                sp -= 1;
                stack[sp - 1] += stack[sp];
            }
            Op::Mul => {
                sp -= 1;
                stack[sp - 1] *= stack[sp];
            }
            Op::Pow(n) => {
                stack[sp - 1] = powi(stack[sp - 1], n);
            }
            Op::Call(fx) => {
                stack[sp - 1] = fx.apply_f32(stack[sp - 1]);
            }
            Op::MulAdd => {
                sp -= 2;
                stack[sp - 1] += stack[sp] * stack[sp + 1];
            }
            Op::LoadMul { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                stack[sp] = c * match (&reads[s], &writes[s]) {
                    (Some(r), _) => r[idx],
                    (None, Some((w, base_off))) => w[idx - *base_off],
                    (None, None) => unreachable!("unbound stream"),
                };
                sp += 1;
            }
            Op::LoadMulAdd { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                stack[sp - 1] += c * match (&reads[s], &writes[s]) {
                    (Some(r), _) => r[idx],
                    (None, Some((w, base_off))) => w[idx - *base_off],
                    (None, None) => unreachable!("unbound stream"),
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-vectorized strip engine
// ---------------------------------------------------------------------------
//
// The runtime analogue of the generated C's `#pragma omp simd`: each
// compiled op executes over a strip of `W` contiguous innermost-loop
// points at once. Dispatch cost is amortized `W`-fold and every per-op
// inner loop is a fixed-trip-count `f32` loop over `[f32; W]` lane
// registers that LLVM autovectorizes. Lane arithmetic is performed in
// the identical order and rounding as the scalar interpreter (no FMA
// contraction, no reassociation), so strip results are bitwise equal to
// scalar results on every operator.

/// Uniform view over the executor's two buffer-binding styles: the
/// single-threaded path binds whole buffers per stream, the threaded
/// path binds shared read slices plus per-worker write slabs.
trait StreamAccess {
    /// `w` contiguous values of stream `s` starting at linear `idx`.
    fn load_run(&self, s: usize, idx: usize, w: usize) -> &[f32];
    /// Mutable run of stream `s` starting at linear `idx` (stores only
    /// target written streams).
    fn store_run(&mut self, s: usize, idx: usize, w: usize) -> &mut [f32];
}

/// Whole-buffer bindings (single-threaded path).
struct FlatAccess<'a, 'b>(&'b mut [&'a mut [f32]]);

impl StreamAccess for FlatAccess<'_, '_> {
    #[inline]
    fn load_run(&self, s: usize, idx: usize, w: usize) -> &[f32] {
        &self.0[s][idx..idx + w]
    }
    #[inline]
    fn store_run(&mut self, s: usize, idx: usize, w: usize) -> &mut [f32] {
        &mut self.0[s][idx..idx + w]
    }
}

/// Read-slice / write-slab bindings (threaded path). Written streams
/// index relative to their slab offset, as in [`eval_point_mixed`].
struct MixedAccess<'r, 'w, 'b> {
    reads: &'b [Option<&'r [f32]>],
    writes: &'b mut [Option<(&'w mut [f32], usize)>],
}

impl StreamAccess for MixedAccess<'_, '_, '_> {
    #[inline]
    fn load_run(&self, s: usize, idx: usize, w: usize) -> &[f32] {
        match (&self.reads[s], &self.writes[s]) {
            (Some(r), _) => &r[idx..idx + w],
            (None, Some((wb, off))) => &wb[idx - *off..idx - *off + w],
            (None, None) => unreachable!("unbound stream"),
        }
    }
    #[inline]
    fn store_run(&mut self, s: usize, idx: usize, w: usize) -> &mut [f32] {
        let (wb, off) = self.writes[s].as_mut().expect("store to unbound stream");
        &mut wb[idx - *off..idx - *off + w]
    }
}

/// Execute the compiled body once over `W` contiguous innermost points.
/// `bases[s]` is the linear index of lane 0 in stream `s`; lanes `l`
/// live at `bases[s] + l` (innermost stride is 1 for every stream).
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#[inline]
fn eval_strip<const W: usize>(
    cc: &CompiledCluster,
    acc: &mut impl StreamAccess,
    bases: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
    temps: &mut [[f32; W]],
    stack: &mut [[f32; W]],
) {
    let mut sp = 0usize;
    for op in &cc.ops {
        match *op {
            Op::Const(i) => {
                stack[sp] = [cc.consts[i as usize]; W];
                sp += 1;
            }
            Op::Scalar(i) => {
                stack[sp] = [scalars[i as usize]; W];
                sp += 1;
            }
            Op::Param(i) => {
                stack[sp] = [params[i as usize]; W];
                sp += 1;
            }
            Op::Temp(i) => {
                stack[sp] = temps[i as usize];
                sp += 1;
            }
            Op::SetTemp(i) => {
                sp -= 1;
                temps[i as usize] = stack[sp];
            }
            Op::Load { stream, off } => {
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                stack[sp].copy_from_slice(acc.load_run(s, idx, W));
                sp += 1;
            }
            Op::Store { stream } => {
                sp -= 1;
                let s = stream as usize;
                acc.store_run(s, bases[s], W).copy_from_slice(&stack[sp]);
            }
            Op::Add => {
                sp -= 1;
                let (lo, hi) = stack.split_at_mut(sp);
                for l in 0..W {
                    lo[sp - 1][l] += hi[0][l];
                }
            }
            Op::Mul => {
                sp -= 1;
                let (lo, hi) = stack.split_at_mut(sp);
                for l in 0..W {
                    lo[sp - 1][l] *= hi[0][l];
                }
            }
            Op::Pow(n) => {
                for v in stack[sp - 1].iter_mut() {
                    *v = powi(*v, n);
                }
            }
            Op::Call(fx) => {
                for v in stack[sp - 1].iter_mut() {
                    *v = fx.apply_f32(*v);
                }
            }
            Op::MulAdd => {
                sp -= 2;
                let (lo, hi) = stack.split_at_mut(sp);
                for l in 0..W {
                    lo[sp - 1][l] += hi[0][l] * hi[1][l];
                }
            }
            Op::LoadMul { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                let src = acc.load_run(s, idx, W);
                for l in 0..W {
                    stack[sp][l] = c * src[l];
                }
                sp += 1;
            }
            Op::LoadMulAdd { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                let src = acc.load_run(s, idx, W);
                for l in 0..W {
                    stack[sp - 1][l] += c * src[l];
                }
            }
        }
    }
}

/// Scalar single-point evaluation through a [`StreamAccess`] — the
/// remainder path when the inner extent is not a multiple of the strip
/// width. Identical arithmetic to [`eval_point_fast`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn eval_point_access(
    cc: &CompiledCluster,
    acc: &mut impl StreamAccess,
    bases: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
    temps: &mut [f32],
    stack: &mut [f32],
) {
    let mut sp = 0usize;
    for op in &cc.ops {
        match *op {
            Op::Const(i) => {
                stack[sp] = cc.consts[i as usize];
                sp += 1;
            }
            Op::Scalar(i) => {
                stack[sp] = scalars[i as usize];
                sp += 1;
            }
            Op::Param(i) => {
                stack[sp] = params[i as usize];
                sp += 1;
            }
            Op::Temp(i) => {
                stack[sp] = temps[i as usize];
                sp += 1;
            }
            Op::SetTemp(i) => {
                sp -= 1;
                temps[i as usize] = stack[sp];
            }
            Op::Load { stream, off } => {
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                stack[sp] = acc.load_run(s, idx, 1)[0];
                sp += 1;
            }
            Op::Store { stream } => {
                sp -= 1;
                let s = stream as usize;
                acc.store_run(s, bases[s], 1)[0] = stack[sp];
            }
            Op::Add => {
                sp -= 1;
                stack[sp - 1] += stack[sp];
            }
            Op::Mul => {
                sp -= 1;
                stack[sp - 1] *= stack[sp];
            }
            Op::Pow(n) => {
                stack[sp - 1] = powi(stack[sp - 1], n);
            }
            Op::Call(fx) => {
                stack[sp - 1] = fx.apply_f32(stack[sp - 1]);
            }
            Op::MulAdd => {
                sp -= 2;
                stack[sp - 1] += stack[sp] * stack[sp + 1];
            }
            Op::LoadMul { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                stack[sp] = c * acc.load_run(s, idx, 1)[0];
                sp += 1;
            }
            Op::LoadMulAdd { coeff, stream, off } => {
                let c = coeff.value(&cc.consts, scalars, params);
                let s = stream as usize;
                let idx = (bases[s] as isize + resolved[off as usize]) as usize;
                stack[sp - 1] += c * acc.load_run(s, idx, 1)[0];
            }
        }
    }
}

/// Strip-execute a whole box: odometer over the outer dims, strips of
/// `W` along the contiguous innermost dim, scalar remainder at each
/// row's tail. Monomorphized per supported width by
/// [`exec_strips_box`]'s dispatch.
#[allow(clippy::too_many_arguments)]
fn exec_strips_box_w<const W: usize>(
    cc: &CompiledCluster,
    bx: &BoxNd,
    acc: &mut impl StreamAccess,
    strides: &[Vec<usize>],
    halos: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
) {
    let nd = bx.len();
    if bx.iter().any(|r| r.is_empty()) {
        return;
    }
    let nstreams = cc.streams.len();
    let inner = bx[nd - 1].clone();
    let mut outer: Vec<usize> = bx[..nd - 1].iter().map(|r| r.start).collect();
    let mut bases = vec![0usize; nstreams];
    // Lane registers (SoA: one [f32; W] per stack slot / temp), plus the
    // scalar registers for the per-row remainder points.
    let mut temps = vec![[0.0f32; W]; cc.num_temps];
    let mut stack = vec![[0.0f32; W]; cc.max_stack.max(4)];
    let mut stemps = vec![0.0f32; cc.num_temps];
    let mut sstack = vec![0.0f32; cc.max_stack.max(4)];
    loop {
        for s in 0..nstreams {
            let mut base = 0usize;
            for d in 0..nd - 1 {
                base += (outer[d] + halos[s]) * strides[s][d];
            }
            base += (inner.start + halos[s]) * strides[s][nd - 1];
            bases[s] = base;
        }
        let n = inner.len();
        let mut i = 0;
        while i + W <= n {
            eval_strip::<W>(
                cc, acc, &bases, resolved, scalars, params, &mut temps, &mut stack,
            );
            for b in bases.iter_mut() {
                *b += W;
            }
            i += W;
        }
        while i < n {
            eval_point_access(
                cc,
                acc,
                &bases,
                resolved,
                scalars,
                params,
                &mut stemps,
                &mut sstack,
            );
            for b in bases.iter_mut() {
                *b += 1;
            }
            i += 1;
        }
        // Odometer over outer dims.
        if nd == 1 {
            return;
        }
        let mut d = nd - 1;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            outer[d] += 1;
            if outer[d] < bx[d].end {
                break;
            }
            outer[d] = bx[d].start;
        }
    }
}

/// Runtime-width dispatch into the monomorphized strip engines.
#[allow(clippy::too_many_arguments)]
fn exec_strips_box(
    vw: usize,
    cc: &CompiledCluster,
    bx: &BoxNd,
    acc: &mut impl StreamAccess,
    strides: &[Vec<usize>],
    halos: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
) {
    match vw {
        8 => exec_strips_box_w::<8>(cc, bx, acc, strides, halos, resolved, scalars, params),
        16 => exec_strips_box_w::<16>(cc, bx, acc, strides, halos, resolved, scalars, params),
        32 => exec_strips_box_w::<32>(cc, bx, acc, strides, halos, resolved, scalars, params),
        other => unreachable!("unsupported vector width {other} (validated earlier)"),
    }
}

// ---------------------------------------------------------------------------
// Per-run mutable state (halo machinery)
// ---------------------------------------------------------------------------

struct ExecState<'a> {
    cart: &'a CartComm,
    fields: &'a mut [FieldState],
    scalars: &'a HashMap<String, f32>,
    params: Vec<f32>,
    opts: ExecOptions,
    t: i64,
    /// Index of the next space loop to execute (into `compiled`).
    loop_idx: usize,
    /// In-flight async exchanges keyed by (field, time_offset).
    pending: HashMap<(u32, i32), mpix_dmp::FullToken>,
    /// Persistent per-(field,toff) overlap exchangers. One per key, not
    /// one shared: each owns a `HaloPlan` (peers, tags, boxes, buffers)
    /// keyed to that field's geometry and tag base.
    full_ex: HashMap<(u32, i32), FullExchange>,
    /// Persistent per-(field,toff) synchronous exchangers, so every mode
    /// reuses its `HaloPlan` (and preallocated buffers) across steps.
    exchangers: HashMap<(u32, i32), Box<dyn HaloExchange + Send>>,
    stats: ExecStats,
    tracer: Tracer,
}

/// Message-tag namespace base for one `(field, time offset)` exchange
/// key: a disjoint 64-tag window per key, so concurrent exchanges of
/// different buffers can never cross-match. Public so the verification
/// passes (`mpix-analysis`) can prove window disjointness against the
/// same formula the executor uses.
pub fn halo_tag_base(field: u32, toff: i32) -> u32 {
    (field * 8 + toff.rem_euclid(8) as u32) * 64
}

impl ExecState<'_> {
    fn tag_base(field: u32, toff: i32) -> u32 {
        halo_tag_base(field, toff)
    }

    fn sync_exchange(&mut self, x: &mpix_ir::halo::HaloXchg) {
        let mode = self.opts.mode;
        let fs = &mut self.fields[x.field.0 as usize];
        let b = fs.buffer_index(self.t, x.time_offset);
        let radius = x.radius.iter().copied().max().unwrap_or(0);
        if radius == 0 {
            return;
        }
        let key = (x.field.0, x.time_offset);
        let ex = self
            .exchangers
            .entry(key)
            .or_insert_with(|| mpix_dmp::halo::make_exchange(mode));
        ex.exchange_traced(
            self.cart,
            &mut fs.buffers[b],
            radius,
            Self::tag_base(x.field.0, x.time_offset),
            &mut self.tracer,
        );
    }

    fn begin_async(&mut self, x: &mpix_ir::halo::HaloXchg) {
        let radius = x.radius.iter().copied().max().unwrap_or(0);
        if radius == 0 {
            return;
        }
        let key = (x.field.0, x.time_offset);
        let fs = &self.fields[x.field.0 as usize];
        let b = fs.buffer_index(self.t, x.time_offset);
        let token = self.full_ex.entry(key).or_default().begin_traced(
            self.cart,
            &fs.buffers[b],
            radius,
            Self::tag_base(x.field.0, x.time_offset),
            &mut self.tracer,
        );
        self.pending.insert(key, token);
    }

    fn finish_async(&mut self, x: &mpix_ir::halo::HaloXchg) {
        let key = (x.field.0, x.time_offset);
        if let Some(token) = self.pending.remove(&key) {
            let fs = &mut self.fields[x.field.0 as usize];
            let b = fs.buffer_index(self.t, x.time_offset);
            self.full_ex
                .get_mut(&key)
                .expect("finish_async without begin_async")
                .finish_traced(token, &mut fs.buffers[b], &mut self.tracer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_comm::Universe;
    use mpix_dmp::Decomposition;
    use mpix_ir::cluster::clusterize;
    use mpix_ir::halo::detect_halo_exchanges;
    use mpix_ir::iet::build_iet;
    use mpix_ir::lowering::lower_equations;
    use mpix_ir::passes::{cse_cluster, lower_halo_spots};
    use mpix_symbolic::{Eq, Grid};
    use std::sync::Arc;

    #[test]
    fn buffer_index_rotates_correctly() {
        let dc = Arc::new(Decomposition::new(&[4, 4], &[1, 1]));
        let fs = FieldState::new(FieldId(0), 3, dc, &[0, 0], 2);
        // Three buffers: time t maps t+k via (t+k) mod 3.
        assert_eq!(fs.buffer_index(0, 0), 0);
        assert_eq!(fs.buffer_index(0, 1), 1);
        assert_eq!(fs.buffer_index(0, -1), 2);
        assert_eq!(fs.buffer_index(5, 0), 2);
        assert_eq!(fs.buffer_index(5, 1), 0);
        // Two buffers.
        let dc = Arc::new(Decomposition::new(&[4, 4], &[1, 1]));
        let fs2 = FieldState::new(FieldId(1), 2, dc, &[0, 0], 2);
        assert_eq!(fs2.buffer_index(7, 0), 1);
        assert_eq!(fs2.buffer_index(7, 1), 0);
    }

    #[test]
    fn eval_invariant_handles_params_and_pows() {
        let mut scalars = HashMap::new();
        scalars.insert("dt".to_string(), 2.0f32);
        // r0 = 1/dt; r1 = r0^2 * 3
        let r0 = eval_invariant(
            &IExpr::Pow(Box::new(IExpr::Sym("dt".into())), -1),
            &scalars,
            &[],
        );
        assert_eq!(r0, 0.5);
        let r1 = eval_invariant(
            &IExpr::Mul(vec![
                IExpr::Pow(Box::new(IExpr::Param(0)), 2),
                IExpr::Const(3.0),
            ]),
            &scalars,
            &[r0],
        );
        assert_eq!(r1, 0.75);
    }

    #[test]
    #[should_panic(expected = "not grid-invariant")]
    fn eval_invariant_rejects_loads() {
        let scalars = HashMap::new();
        eval_invariant(
            &IExpr::Load(mpix_ir::iexpr::IdxAccess {
                field: FieldId(0),
                time_offset: 0,
                deltas: vec![0],
            }),
            &scalars,
            &[],
        );
    }

    /// Build, lower and execute a small copy-shift operator directly
    /// through the executor (no Operator wrapper) and check the result.
    #[test]
    fn executor_runs_lowered_iet_directly() {
        let mut ctx = Context::new();
        let grid = Grid::new(&[6, 6], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 2, 1);
        // u[t+1](x,y) = 2 * u[t](x+1, y)
        let eq = Eq::new(u.forward(), 2.0 * u.at(0, &[1, 0]));
        let mut cls = clusterize(&lower_equations(&[eq], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "K", 0, false);
        let iet = lower_halo_spots(iet, MpiMode::Basic);
        let exec = OperatorExec::new(iet, &ctx);
        assert_eq!(exec.compiled_clusters().len(), 1);

        Universe::run(1, |comm| {
            let cart = mpix_comm::CartComm::new(comm, &[1, 1]);
            let dc = Arc::new(Decomposition::new(&[6, 6], &[1, 1]));
            let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0], 2)];
            for i in 0..6 {
                for j in 0..6 {
                    fields[0].buffers[0].set_global(&[i, j], (i * 6 + j) as f32);
                }
            }
            let scalars = HashMap::new();
            let stats = exec.run(
                &cart,
                &mut fields,
                &scalars,
                &mut [],
                0,
                1,
                &ExecOptions::default(),
            );
            assert_eq!(stats.points_updated, 36);
            // After one step, buffer 1 holds 2*shifted values.
            let b1 = &fields[0].buffers[1];
            assert_eq!(b1.get_global(&[2, 3]), Some(2.0 * (3 * 6 + 3) as f32));
            // Bottom row reads the zero halo.
            assert_eq!(b1.get_global(&[5, 0]), Some(0.0));
        });
    }

    #[test]
    fn threaded_and_blocked_execution_bitwise_equal() {
        let mut ctx = Context::new();
        let grid = Grid::new(&[12, 10, 8], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 2, 1);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let mut cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "K", 0, true);
        let iet = lower_halo_spots(iet, MpiMode::Basic);
        let exec = &OperatorExec::new(iet, &ctx);

        let run = |threads: usize, block: usize, vw: usize| -> Vec<f32> {
            Universe::run(1, |comm| {
                let cart = mpix_comm::CartComm::new(comm, &[1, 1, 1]);
                let dc = Arc::new(Decomposition::new(&[12, 10, 8], &[1, 1, 1]));
                let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0, 0], 2)];
                for i in 0..12 {
                    for j in 0..10 {
                        for k in 0..8 {
                            fields[0].buffers[0]
                                .set_global(&[i, j, k], ((i * 80 + j * 8 + k) % 13) as f32);
                        }
                    }
                }
                let mut scalars = HashMap::new();
                scalars.insert("dt".to_string(), 0.01f32);
                scalars.insert("h_x".to_string(), 0.1);
                scalars.insert("h_y".to_string(), 0.1);
                scalars.insert("h_z".to_string(), 0.1);
                exec.run(
                    &cart,
                    &mut fields,
                    &scalars,
                    &mut [],
                    0,
                    3,
                    &ExecOptions {
                        mode: HaloMode::Basic,
                        block,
                        threads,
                        vector_width: vw,
                        ..ExecOptions::default()
                    },
                );
                fields[0].buffers[fields[0].buffer_index(3, 0)]
                    .raw()
                    .to_vec()
            })
            .pop()
            .unwrap()
        };
        let base = run(1, 0, 0);
        assert_eq!(base, run(3, 0, 0), "threads=3 differs");
        assert_eq!(base, run(1, 4, 0), "block=4 differs");
        assert_eq!(base, run(2, 4, 0), "threads=2+block=4 differs");
        assert_eq!(base, run(4, 8, 0), "threads=4+block=8 differs");
        // Lane-vectorized strips: inner extent 8, so vw=8 is exact
        // strips and vw=16/32 degenerate to the scalar remainder path;
        // all must be bitwise identical, alone and composed with
        // blocking and threading.
        for vw in [8usize, 16, 32] {
            assert_eq!(base, run(1, 0, vw), "vw={vw} differs");
            assert_eq!(base, run(1, 4, vw), "vw={vw}+block=4 differs");
            assert_eq!(base, run(3, 0, vw), "vw={vw}+threads=3 differs");
            assert_eq!(base, run(2, 8, vw), "vw={vw}+threads=2+block=8 differs");
        }
    }

    #[test]
    #[should_panic(expected = "vector_width=5")]
    fn unsupported_vector_width_rejected() {
        validate_vector_width(5);
    }

    /// The native JIT backend must be bitwise identical to the bytecode
    /// interpreter on every execution shape: plain, blocked, threaded,
    /// and their compositions (odd inner extent → scalar tail active).
    #[test]
    fn jit_backend_bitwise_equal_to_bytecode() {
        if !crate::backend::available_backends().contains(&Backend::Jit) {
            return; // host cannot run native code
        }
        let mut ctx = Context::new();
        let grid = Grid::new(&[11, 9, 13], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 4, 1);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let mut cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "K", 0, true);
        let iet = lower_halo_spots(iet, MpiMode::Basic);

        let run = |backend: Backend, threads: usize, block: usize| -> Vec<f32> {
            let exec = OperatorExec::with_backend(iet.clone(), &ctx, backend).unwrap();
            Universe::run(1, |comm| {
                let cart = mpix_comm::CartComm::new(comm, &[1, 1, 1]);
                let dc = Arc::new(Decomposition::new(&[11, 9, 13], &[1, 1, 1]));
                let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0, 0], 4)];
                for i in 0..11 {
                    for j in 0..9 {
                        for k in 0..13 {
                            fields[0].buffers[0].set_global(
                                &[i, j, k],
                                ((i * 117 + j * 13 + k) % 29) as f32 * 0.125 - 1.0,
                            );
                        }
                    }
                }
                let mut scalars = HashMap::new();
                scalars.insert("dt".to_string(), 0.01f32);
                scalars.insert("h_x".to_string(), 0.1);
                scalars.insert("h_y".to_string(), 0.1);
                scalars.insert("h_z".to_string(), 0.1);
                exec.run(
                    &cart,
                    &mut fields,
                    &scalars,
                    &mut [],
                    0,
                    3,
                    &ExecOptions {
                        mode: HaloMode::Basic,
                        block,
                        threads,
                        ..ExecOptions::default()
                    },
                );
                fields[0].buffers[fields[0].buffer_index(3, 0)]
                    .raw()
                    .to_vec()
            })
            .pop()
            .unwrap()
        };
        let oracle = run(Backend::Bytecode, 1, 0);
        for (threads, block) in [(1usize, 0usize), (1, 4), (3, 0), (2, 4)] {
            let jit = run(Backend::Jit, threads, block);
            for (k, (a, b)) in oracle.iter().zip(&jit).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads} block={block} idx={k}: {a} vs {b}"
                );
            }
        }
    }
}
