//! The `Operator`: compile once, apply at any rank count and MPI mode.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mpix_codegen::executor::{mpi_mode_of, ExecOptions, ExecStats, Fault, OperatorExec};
use mpix_codegen::Backend;
use mpix_comm::{dims_create, CartComm, Universe};
use mpix_dmp::HaloMode;
use mpix_ir::cluster::{clusterize, Cluster};
use mpix_ir::halo::{detect_halo_exchanges, HaloPlan};
use mpix_ir::iet::{build_iet, Node};
use mpix_ir::lowering::{lower_equations, LoweringError};
use mpix_ir::opcount::{op_counts, OpCounts};
use mpix_ir::passes::{cse_cluster, lower_halo_spots};
use mpix_ir::schedule::ScheduleTree;
use mpix_perf::machine::archer2_node;
use mpix_symbolic::{Context, Eq, Grid};
use mpix_trace::{PerfSummary, TraceLevel, TraceReport};

use crate::workspace::Workspace;

/// Compilation failures surfaced to the user.
#[derive(Debug)]
pub enum BuildError {
    Lowering(LoweringError),
    /// The operator has no equations.
    Empty,
}

impl From<LoweringError> for BuildError {
    fn from(e: LoweringError) -> Self {
        BuildError::Lowering(e)
    }
}

/// The one runtime configuration for [`Operator::run`] — the paper's
/// `DEVITO_MPI` mode, blocking tile, thread count, time stepping, rank
/// topology, and instrumentation level, in a single struct.
///
/// The documented configuration path is: start from the builder
/// (`ApplyOptions::default().with_mode(...).with_ranks(4)...`), then let
/// the environment override it with [`env_overrides`](Self::env_overrides).
/// Environment values always win over builder values, mirroring how the
/// paper's job scripts control a fixed binary:
///
/// | variable       | overrides | values                                 |
/// |----------------|-----------|----------------------------------------|
/// | `MPIX_MPI`     | `mode`    | `basic`, `diag`/`diag2`, `full`        |
/// | `MPIX_BLOCK`   | `block`   | tile edge (0 = off)                    |
/// | `MPIX_THREADS` | `threads` | like `OMP_NUM_THREADS`                 |
/// | `MPIX_RANKS`   | `ranks`   | simulated MPI ranks                    |
/// | `MPIX_TRACE`   | `trace`   | `off`, `summary`, `full`               |
/// | `MPIX_VW`      | `vector_width` | `0`/`1` (scalar), `8`, `16`, `32`; only the `bytecode` backend reads it |
/// | `MPIX_BACKEND` | `backend` | `c`, `bytecode`, `jit`                 |
/// | `MPIX_VERIFY`  | `verify`  | `0`/`off`/`false`, `1`/`on`/`true`     |
/// | `MPIX_SAN`     | `sanitize`| `0`/`off`/`false`, `1`/`on`/`true`     |
#[derive(Clone, Debug)]
pub struct ApplyOptions {
    pub mode: HaloMode,
    pub block: usize,
    pub threads: usize,
    /// Lane width for the strip-vectorized interpreter (the runtime
    /// analogue of the paper's `#pragma omp simd`); `0`/`1` = scalar.
    /// Ignored by the `jit` backend, whose lane count is fixed by the
    /// instruction set.
    pub vector_width: usize,
    /// Execution backend compiling the kernel bodies (see
    /// [`mpix_codegen::Backend`]): `jit` (native SIMD), `bytecode`
    /// (portable interpreter), or `c` (paper-style C emission; executes
    /// through the interpreter). The default is the host rule
    /// [`mpix_codegen::default_backend`]: `jit` where the host can run
    /// it, `bytecode` otherwise. Results are bitwise identical across
    /// backends — only speed differs.
    pub backend: Backend,
    /// Number of time steps.
    pub nt: i64,
    /// First time index (enables external stepping: run `nt` steps from
    /// `t0`, inspect, continue from `t0 + nt` with rotation preserved).
    pub t0: i64,
    /// Time-step size; if `None`, a default of 1.0 is used.
    pub dt: Option<f64>,
    /// Extra runtime scalars beyond `dt`/`h_*`.
    pub scalars: Vec<(String, f32)>,
    /// Simulated MPI ranks for [`Operator::run`].
    pub ranks: usize,
    /// Explicit Cartesian topology; `None` = balanced `dims_create`.
    pub topology: Option<Vec<usize>>,
    /// Instrumentation level (see `mpix_trace`); `Off` costs a branch.
    pub trace: TraceLevel,
    /// Label stamped into the [`PerfSummary`] (e.g. `acoustic-so4`).
    pub label: String,
    /// Run the `mpix-analysis` self-verification passes over the
    /// operator's artifacts before executing (the run configuration
    /// only; the `mpix-verify` binary sweeps the full matrix). Errors
    /// panic — executing a provably broken schedule would produce wrong
    /// numerics or deadlock; warnings ride along on the
    /// [`PerfSummary::diagnostics`]. Defaults to on in debug builds.
    pub verify: bool,
    /// Run under the `mpix-san` happens-before sanitizer: vector clocks
    /// on every message/barrier plus shadow state on halo regions, with
    /// findings appended to [`PerfSummary::diagnostics`] and printed to
    /// stderr. Off by default — when off the only cost anywhere in the
    /// runtime is one `Option` branch per hook site.
    pub sanitize: bool,
    /// Test-only fault injection for the sanitizer's mutant corpus:
    /// makes the executor misbehave in a specific way so the owning
    /// detector can prove it fires. Never set this outside tests.
    #[doc(hidden)]
    pub fault: Option<Fault>,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        ApplyOptions {
            mode: HaloMode::Basic,
            block: 0,
            threads: 1,
            vector_width: 0,
            backend: mpix_codegen::default_backend(),
            nt: 1,
            t0: 0,
            dt: None,
            scalars: Vec::new(),
            ranks: 1,
            topology: None,
            trace: TraceLevel::Off,
            label: "operator".to_string(),
            verify: cfg!(debug_assertions),
            sanitize: false,
            fault: None,
        }
    }
}

impl ApplyOptions {
    pub fn with_mode(mut self, mode: HaloMode) -> Self {
        self.mode = mode;
        self
    }
    pub fn with_nt(mut self, nt: i64) -> Self {
        self.nt = nt;
        self
    }
    pub fn with_t0(mut self, t0: i64) -> Self {
        self.t0 = t0;
        self
    }
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
    pub fn with_vector_width(mut self, vw: usize) -> Self {
        self.vector_width = mpix_codegen::executor::validate_vector_width(vw);
        self
    }
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
    pub fn with_scalar(mut self, name: &str, v: f32) -> Self {
        self.scalars.push((name.to_string(), v));
        self
    }
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks.max(1);
        self
    }
    pub fn with_topology(mut self, dims: &[usize]) -> Self {
        self.topology = Some(dims.to_vec());
        self
    }
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }
    pub fn with_sanitize(mut self, sanitize: bool) -> Self {
        self.sanitize = sanitize;
        self
    }

    /// Apply environment overrides on top of the builder values (env
    /// wins — see the table on [`ApplyOptions`]). Unset variables leave
    /// the builder value untouched; a set-but-unparseable value panics,
    /// like [`TraceLevel::from_env`] — silently ignoring a typo'd job
    /// script is worse.
    pub fn env_overrides(mut self) -> Self {
        if let Ok(v) = std::env::var("MPIX_MPI") {
            self.mode = HaloMode::parse(&v)
                .unwrap_or_else(|| panic!("MPIX_MPI={v:?}: expected basic|diag|diag2|full"));
        }
        if let Ok(v) = std::env::var("MPIX_BLOCK") {
            self.block = v
                .parse()
                .unwrap_or_else(|_| panic!("MPIX_BLOCK={v:?}: expected a block size"));
        }
        if let Ok(v) = std::env::var("MPIX_THREADS") {
            // Zero is as malformed as a typo: clamping `MPIX_THREADS=0`
            // to 1 would silently run a misconfigured job script, which
            // the contract above promises never happens.
            self.threads = match v.parse() {
                Ok(t) if t >= 1 => t,
                _ => panic!("MPIX_THREADS={v:?}: expected a thread count >= 1"),
            };
        }
        if let Ok(v) = std::env::var("MPIX_RANKS") {
            self.ranks = match v.parse() {
                Ok(r) if r >= 1 => r,
                _ => panic!("MPIX_RANKS={v:?}: expected a rank count >= 1"),
            };
        }
        if std::env::var("MPIX_TRACE").is_ok() {
            self.trace = TraceLevel::from_env();
        }
        if let Ok(v) = std::env::var("MPIX_VW") {
            let vw: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("MPIX_VW={v:?}: expected a lane width (0|1|8|16|32)"));
            self.vector_width = mpix_codegen::executor::validate_vector_width(vw);
        }
        if let Ok(v) = std::env::var("MPIX_BACKEND") {
            self.backend = v
                .parse()
                .unwrap_or_else(|e| panic!("MPIX_BACKEND={v:?}: {e}"));
        }
        if let Ok(v) = std::env::var("MPIX_VERIFY") {
            self.verify = match v.to_ascii_lowercase().as_str() {
                "1" | "on" | "true" => true,
                "0" | "off" | "false" => false,
                _ => panic!("MPIX_VERIFY={v:?}: expected 0|1|on|off|true|false"),
            };
        }
        if let Ok(v) = std::env::var("MPIX_SAN") {
            self.sanitize = match v.to_ascii_lowercase().as_str() {
                "1" | "on" | "true" => true,
                "0" | "off" | "false" => false,
                _ => panic!("MPIX_SAN={v:?}: expected 0|1|on|off|true|false"),
            };
        }
        self
    }

    /// Defaults plus environment overrides — the paper's job-script
    /// path for a binary with no hard-coded configuration.
    pub fn from_env() -> Self {
        ApplyOptions::default().env_overrides()
    }
}

/// User-facing label of a halo mode, as stamped into [`PerfSummary`].
fn mode_label(mode: HaloMode) -> &'static str {
    match mode {
        HaloMode::Basic => "basic",
        HaloMode::Diagonal => "diag",
        HaloMode::Full => "full",
    }
}

/// The result of one [`Operator::run`]: every rank's extracted value
/// plus the aggregated performance readout.
pub struct Applied<R> {
    /// Per-rank results from the `extract` closure, rank order.
    pub results: Vec<R>,
    /// Cross-rank performance aggregate (timings are real even at
    /// `TraceLevel::Off`; section/message detail needs `Summary`/`Full`).
    pub summary: PerfSummary,
}

/// A compiled operator: the product of the Fig. 1 pipeline, plus enough
/// metadata to print every IR level.
pub struct Operator {
    ctx: Context,
    grid: Grid,
    clusters: Vec<Cluster>,
    plan: HaloPlan,
    iet: Node,
    counts: OpCounts,
    /// Executables already lowered for a `(mode, backend)` pair. Lowering
    /// and kernel compilation (including the JIT's per-geometry native
    /// modules, which live *inside* the cached [`OperatorExec`]) happen
    /// once per pair per operator; every later [`run`](Self::run) reuses
    /// the same kernels. This is the per-operator face of the serve
    /// layer's content-keyed [`crate::serve::OperatorCache`].
    execs: std::sync::Mutex<HashMap<(HaloMode, Backend), Arc<OperatorExec>>>,
    /// Memoized per-point bytecode flop count (see
    /// [`bytecode_flops`](Self::bytecode_flops)).
    bc_flops: std::sync::OnceLock<usize>,
    /// Memoized [`content_key`](Self::content_key) per
    /// `(mode, backend, vector_width)`.
    keys: std::sync::Mutex<HashMap<(HaloMode, Backend, usize), u64>>,
}

impl Operator {
    /// Run the compilation pipeline on explicit update equations
    /// (each `Eq` must already be in `target = stencil` form; use
    /// [`Eq::solve_for`] first for implicit PDE statements).
    pub fn build(ctx: Context, grid: Grid, eqs: Vec<Eq>) -> Result<Operator, BuildError> {
        if eqs.is_empty() {
            return Err(BuildError::Empty);
        }
        let lowered = lower_equations(&eqs, &ctx)?;
        let mut clusters = clusterize(&lowered);
        let mut next_param = 0;
        for cl in &mut clusters {
            cse_cluster(cl, &mut next_param);
        }
        let plan = detect_halo_exchanges(&clusters, &ctx);
        let counts = op_counts(&clusters);
        let iet = build_iet(clusters.clone(), &plan, "Kernel", 0, true);
        Ok(Operator {
            ctx,
            grid,
            clusters,
            plan,
            iet,
            counts,
            execs: std::sync::Mutex::new(HashMap::new()),
            bc_flops: std::sync::OnceLock::new(),
            keys: std::sync::Mutex::new(HashMap::new()),
        })
    }

    pub fn ctx(&self) -> &Context {
        &self.ctx
    }
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }
    pub fn halo_plan(&self) -> &HaloPlan {
        &self.plan
    }
    /// Compile-time operation counts (OI, flops/pt, streams) — the
    /// paper's §IV-C compile-time metrics.
    pub fn op_counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Per-point flop count of the bytecode the executor actually runs:
    /// the sum over clusters of the fused program's
    /// [`CompiledCluster::flop_count`](mpix_codegen::CompiledCluster::flop_count)
    /// (fused ops are costed at full arithmetic weight, so fusion never
    /// changes the number). Admission pricing derives per-point work
    /// from this — re-computed from the compiler on every build, never
    /// a per-solver constant — so it tracks compiler improvements (e.g.
    /// the CSE fix that dropped viscoelastic to ~580 flops/pt)
    /// automatically. Memoized: the bytecode compile is cheap but not
    /// free, and serve prices every job at admission.
    pub fn bytecode_flops(&self) -> usize {
        *self.bc_flops.get_or_init(|| {
            self.clusters
                .iter()
                .map(|cl| {
                    mpix_codegen::fuse_cluster(mpix_codegen::compile_cluster(cl)).flop_count()
                })
                .sum()
        })
    }

    /// The schedule tree (Listing 4).
    pub fn schedule_tree(&self) -> String {
        ScheduleTree::build(&self.clusters, &self.plan, &self.ctx).to_string()
    }

    /// The IET with HaloSpots (Listing 5).
    pub fn iet_string(&self) -> String {
        format!(
            "{}",
            mpix_ir::iet::IetPrinter {
                node: &self.iet,
                ctx: &self.ctx
            }
        )
    }

    /// Generated C code for the mode selected in `opts` (Listing 11).
    pub fn c_code_for(&self, opts: &ApplyOptions) -> String {
        let lowered = lower_halo_spots(self.iet.clone(), mpi_mode_of(opts.mode));
        mpix_codegen::cgen::emit_c(&lowered, &self.ctx)
    }

    /// Executable lowered for the mode and backend selected in `opts`,
    /// compiled **once** per `(mode, backend)` pair and shared across
    /// every subsequent `run` of this operator. The JIT's per-geometry
    /// native-module cache lives inside the returned executable, so
    /// repeated runs of the same geometry reuse machine code instead of
    /// re-encoding AVX on every call (the pre-serve code rebuilt a fresh
    /// `JitKernel` with an empty module cache per run).
    ///
    /// Panics with the backend-availability listing if the requested
    /// backend cannot run on this host (e.g. `jit` without AVX) — a
    /// silently substituted backend would invalidate benchmark numbers.
    pub fn executable_for(&self, opts: &ApplyOptions) -> Arc<OperatorExec> {
        let key = (opts.mode, opts.backend);
        // The lock is held across compilation deliberately: concurrent
        // first requests for one pair must compile once, not race
        // (single-flight at per-operator granularity; the serve layer's
        // OperatorCache adds the same guarantee across operators).
        let mut cache = self.execs.lock().unwrap();
        if let Some(exec) = cache.get(&key) {
            return Arc::clone(exec);
        }
        let exec = Arc::new(self.compile_executable_for(opts));
        cache.insert(key, Arc::clone(&exec));
        exec
    }

    /// Compile a fresh executable for `opts`, bypassing the cache. This
    /// is the raw compile [`executable_for`](Self::executable_for)
    /// memoizes; benchmarks use it to time compilation itself.
    pub fn compile_executable_for(&self, opts: &ApplyOptions) -> OperatorExec {
        let lowered = lower_halo_spots(self.iet.clone(), mpi_mode_of(opts.mode));
        OperatorExec::with_backend(lowered, &self.ctx, opts.backend)
            .unwrap_or_else(|e| panic!("operator '{}': {e}", opts.label))
    }

    /// Content hash of this operator as lowered for `opts` — the serve
    /// layer's cache key. Two operators collide exactly when their
    /// mode-lowered IET (structure *and* expressions, via the C
    /// emission), their compiled cluster bytecode, the execution
    /// backend, and the interpreter lane width all agree; pointer
    /// identity plays no part. Same-geometry operators with different
    /// expressions hash apart (different coefficients/opcodes); the same
    /// equations built twice hash together.
    ///
    /// Memoized per `(mode, backend, vector_width)`: the hash re-lowers
    /// the IET and emits its full C source, which costs up to a few ms,
    /// and the serve layer keys every job. An `Operator` is immutable
    /// after [`build`](Self::build), so a memoized key cannot go stale.
    pub fn content_key(&self, opts: &ApplyOptions) -> u64 {
        let memo = (opts.mode, opts.backend, opts.vector_width);
        if let Some(&key) = self.keys.lock().unwrap().get(&memo) {
            return key;
        }
        // Hashed outside the lock: a racing first request for the same
        // triple computes the same value, and other triples stay served.
        let key = self.hash_content(opts);
        self.keys.lock().unwrap().insert(memo, key);
        key
    }

    /// The uncached hash behind [`content_key`](Self::content_key).
    fn hash_content(&self, opts: &ApplyOptions) -> u64 {
        let lowered = lower_halo_spots(self.iet.clone(), mpi_mode_of(opts.mode));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // IET structure + expressions + halo call sites for this mode.
        mpix_codegen::cgen::emit_c(&lowered, &self.ctx).hash(&mut h);
        // The compiled cluster bodies (post-fusion bytecode listing).
        mpix_codegen::create_lowering(Backend::Bytecode)
            .expect("bytecode backend is always available")
            .emit(&lowered, &self.ctx)
            .hash(&mut h);
        opts.backend.to_string().hash(&mut h);
        opts.vector_width.hash(&mut h);
        h.finish()
    }

    /// Default runtime scalars: `dt` and the grid spacings.
    pub fn default_scalars(&self, opts: &ApplyOptions) -> HashMap<String, f32> {
        let mut m = HashMap::new();
        m.insert("dt".to_string(), opts.dt.unwrap_or(1.0) as f32);
        for d in 0..self.grid.ndim() {
            m.insert(Grid::spacing_symbol_name(d), self.grid.spacing(d) as f32);
        }
        for (k, v) in &opts.scalars {
            m.insert(k.clone(), *v);
        }
        m
    }

    /// Run the `mpix-analysis` self-verification passes over this
    /// operator's artifacts for an explicit configuration sweep. This is
    /// the programmatic face of the `mpix-verify` binary; [`run`](Self::run)
    /// calls it implicitly (for the run configuration only) when
    /// `opts.verify` is set.
    pub fn verify(&self, cfg: &mpix_analysis::AnalysisConfig) -> mpix_analysis::AnalysisReport {
        mpix_analysis::verify_operator(&self.ctx, &self.grid, &self.clusters, &self.plan, cfg)
    }

    /// Run on an existing per-rank workspace (the low-level entry point;
    /// `apply_distributed` wraps it).
    pub fn apply(&self, ws: &mut Workspace, exec: &OperatorExec, opts: &ApplyOptions) -> ExecStats {
        let scalars = self.default_scalars(opts);
        let Workspace {
            cart,
            fields,
            sparse,
            ..
        } = ws;
        exec.run(
            cart,
            fields,
            &scalars,
            sparse,
            opts.t0,
            opts.nt,
            &ExecOptions {
                mode: opts.mode,
                block: opts.block,
                threads: opts.threads,
                vector_width: opts.vector_width,
                trace: opts.trace,
                fault: opts.fault,
            },
        )
    }

    /// The paper's zero-code-change promise, with observability: run the
    /// same operator on `opts.ranks` simulated MPI ranks. `init` seeds
    /// each rank's data (global indexing — every rank runs the same
    /// code, as with the distributed NumPy arrays); `extract` pulls
    /// per-rank results. The returned [`Applied`] carries both the
    /// extracted values and a cross-rank [`PerfSummary`] with the
    /// roofline ceiling of the reference machine attached.
    pub fn run<R, FI, FX>(&self, opts: &ApplyOptions, init: FI, extract: FX) -> Applied<R>
    where
        R: Send,
        FI: Fn(&mut Workspace) + Send + Sync,
        FX: Fn(&mut Workspace) -> R + Send + Sync,
    {
        let exec = self.executable_for(opts);
        self.run_with_exec(&exec, opts, init, extract)
    }

    /// [`run`](Self::run) against an explicitly provided executable —
    /// the serve layer's entry point, where the executable comes from a
    /// cross-operator [`crate::serve::OperatorCache`] rather than this
    /// operator's own per-`(mode, backend)` cache. The executable must
    /// have been lowered for the same mode and backend `opts` selects.
    pub fn run_with_exec<R, FI, FX>(
        &self,
        exec: &OperatorExec,
        opts: &ApplyOptions,
        init: FI,
        extract: FX,
    ) -> Applied<R>
    where
        R: Send,
        FI: Fn(&mut Workspace) + Send + Sync,
        FX: Fn(&mut Workspace) -> R + Send + Sync,
    {
        assert_eq!(
            exec.backend(),
            opts.backend,
            "operator '{}': executable was compiled by the {} backend but \
             the run options select {}",
            opts.label,
            exec.backend(),
            opts.backend
        );
        // Validate the lane width once at the entry point: builders and
        // `env_overrides` already validate, but `vector_width` is a pub
        // field — a raw struct write could otherwise carry an arbitrary
        // width all the way into the executor.
        let _ = mpix_codegen::executor::validate_vector_width(opts.vector_width);

        let nranks = opts.ranks.max(1);
        let dims = opts
            .topology
            .clone()
            .unwrap_or_else(|| dims_create(nranks, self.grid.ndim()));

        // Self-verification gate: prove the artifacts sound for this run
        // configuration before executing them. Errors abort — running a
        // provably broken plan deadlocks or silently corrupts numerics.
        let mut diagnostics = if opts.verify {
            let cfg = mpix_analysis::AnalysisConfig::for_run(
                opts.mode,
                nranks,
                opts.threads,
                opts.vector_width,
                opts.backend,
            );
            let report = self.verify(&cfg);
            assert!(
                !report.has_errors(),
                "operator '{}' failed self-verification:\n{report}",
                opts.label
            );
            report.diagnostics
        } else {
            Vec::new()
        };

        // Sanitizer: `with_sanitize(true)` forces it on; otherwise defer
        // to `MPIX_SAN` so job scripts can arm it without a rebuild (the
        // same path a bare `Universe::run` takes).
        let san = if opts.sanitize {
            Some(std::sync::Arc::new(mpix_san::San::new(nranks)))
        } else {
            mpix_san::San::from_env(nranks)
        };

        let per_rank = Universe::run_with_san(nranks, san.clone(), |comm| {
            let cart = CartComm::new(comm, &dims);
            let mut ws = Workspace::new(&self.ctx, &self.grid, cart);
            init(&mut ws);
            let stats = self.apply(&mut ws, exec, opts);
            ws.last_stats = Some(stats.clone());
            ws.final_t = opts.t0 + opts.nt;
            (extract(&mut ws), stats)
        });

        // Drain sanitizer findings into the summary (run_with_san already
        // finalized the leak check and echoed them to stderr).
        if let Some(s) = &san {
            diagnostics.extend(s.take_reports());
        }

        let mut results = Vec::with_capacity(per_rank.len());
        let mut rank_totals = Vec::with_capacity(per_rank.len());
        let mut reports: Vec<TraceReport> = Vec::new();
        for (r, stats) in per_rank {
            rank_totals.push((stats.total_secs(), stats.points_updated));
            if let Some(tr) = stats.trace {
                reports.push(tr);
            }
            results.push(r);
        }

        let oi = self.counts.oi();
        let machine = archer2_node();
        let ceiling = (machine.peak_flops).min(machine.mem_bw * oi) / 1e9;
        let summary = PerfSummary::from_reports(
            &opts.label,
            mode_label(opts.mode),
            opts.nt,
            self.counts.flops() as f64,
            oi,
            &rank_totals,
            &reports,
        )
        .with_roofline(format!("{} (reference)", machine.name), ceiling)
        .with_engine(
            exec.backend().to_string(),
            exec.compiled_clusters().len(),
            exec.fallback_clusters(),
        )
        .with_diagnostics(diagnostics);

        Applied { results, summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_options_from_env_parses_job_script_values() {
        // Serialize ALL env mutation within this one test: the env is
        // process-global and tests run on parallel threads.
        std::env::set_var("MPIX_MPI", "diag2");
        std::env::set_var("MPIX_BLOCK", "16");
        std::env::set_var("MPIX_THREADS", "4");
        std::env::set_var("MPIX_RANKS", "8");
        std::env::set_var("MPIX_TRACE", "summary");
        std::env::set_var("MPIX_VW", "16");
        std::env::set_var("MPIX_BACKEND", "jit");
        std::env::set_var("MPIX_VERIFY", "on");
        std::env::set_var("MPIX_SAN", "on");
        let o = ApplyOptions::from_env();
        assert_eq!(o.mode, HaloMode::Diagonal);
        assert_eq!(o.block, 16);
        assert_eq!(o.threads, 4);
        assert_eq!(o.ranks, 8);
        assert_eq!(o.trace, TraceLevel::Summary);
        assert_eq!(o.vector_width, 16);
        assert_eq!(o.backend, Backend::Jit);
        assert!(o.verify);
        assert!(o.sanitize);
        std::env::set_var("MPIX_VERIFY", "0");
        std::env::set_var("MPIX_SAN", "off");
        let o = ApplyOptions::from_env();
        assert!(!o.verify);
        assert!(!o.sanitize);

        // Precedence: environment beats builder.
        let o = ApplyOptions::default()
            .with_mode(HaloMode::Full)
            .with_block(64)
            .with_trace(TraceLevel::Full)
            .env_overrides();
        assert_eq!(o.mode, HaloMode::Diagonal);
        assert_eq!(o.block, 16);
        assert_eq!(o.trace, TraceLevel::Summary);

        // Zero is malformed for THREADS/RANKS — fail loudly, never clamp
        // to 1 (a typo'd job script must not silently run serial).
        std::env::set_var("MPIX_THREADS", "0");
        assert!(std::panic::catch_unwind(ApplyOptions::from_env).is_err());
        std::env::set_var("MPIX_THREADS", "4");
        std::env::set_var("MPIX_RANKS", "0");
        assert!(std::panic::catch_unwind(ApplyOptions::from_env).is_err());
        std::env::set_var("MPIX_RANKS", "8");
        // Set-but-empty MPIX_TRACE is malformed, like every other knob.
        std::env::set_var("MPIX_TRACE", "");
        assert!(std::panic::catch_unwind(ApplyOptions::from_env).is_err());
        std::env::set_var("MPIX_TRACE", "summary");

        std::env::remove_var("MPIX_MPI");
        std::env::remove_var("MPIX_BLOCK");
        std::env::remove_var("MPIX_THREADS");
        std::env::remove_var("MPIX_RANKS");
        std::env::remove_var("MPIX_TRACE");
        std::env::remove_var("MPIX_VW");
        std::env::remove_var("MPIX_BACKEND");
        std::env::remove_var("MPIX_VERIFY");
        std::env::remove_var("MPIX_SAN");
        let o = ApplyOptions::from_env();
        assert_eq!(o.mode, HaloMode::Basic);
        assert_eq!(o.block, 0);
        assert_eq!(o.trace, TraceLevel::Off);
        assert_eq!(o.vector_width, 0);
        assert_eq!(o.backend, mpix_codegen::default_backend());

        // Unset env leaves builder values untouched.
        let o = ApplyOptions::default()
            .with_mode(HaloMode::Full)
            .with_ranks(4)
            .env_overrides();
        assert_eq!(o.mode, HaloMode::Full);
        assert_eq!(o.ranks, 4);
    }

    #[test]
    fn default_backend_is_jit_exactly_where_the_host_runs_it() {
        let host_has_jit = mpix_codegen::available_backends().contains(&Backend::Jit);
        let default = ApplyOptions::default().backend;
        assert_eq!(default == Backend::Jit, host_has_jit);
        if !host_has_jit {
            assert_eq!(default, Backend::Bytecode);
        }
    }

    /// `u.dt = alpha * laplace(u)` on a small 2-D grid.
    fn heat(alpha: f64) -> Operator {
        let mut ctx = Context::new();
        let grid = Grid::new(&[10, 12], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 4, 2);
        let eq = Eq::new(u.dt(), u.laplace() * alpha);
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        Operator::build(ctx, grid, vec![st]).unwrap()
    }

    #[test]
    fn memoized_content_key_matches_a_fresh_build() {
        let a = heat(1.0);
        let b = heat(0.5);
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            for backend in mpix_codegen::available_backends() {
                for vw in [0, 16] {
                    let opts = ApplyOptions::default()
                        .with_mode(mode)
                        .with_backend(backend)
                        .with_vector_width(vw);
                    let what = format!("{mode:?} {backend} vw={vw}");
                    let first = a.content_key(&opts);
                    // The second call is served from the memo.
                    assert_eq!(a.content_key(&opts), first, "{what}");
                    // A fresh, identical operator hashes from scratch.
                    assert_eq!(heat(1.0).content_key(&opts), first, "{what}");
                    assert_eq!(a.hash_content(&opts), first, "{what}");
                    assert_ne!(b.content_key(&opts), first, "{what}");
                }
            }
        }
    }
}
