//! The two solver workloads. One whole `Operator::run` (workspace, init
//! closure, time loop, extract closure) is one job.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpix_codegen::executor::Fault;
use mpix_codegen::{exec_compiles, jit_modules_built};
use mpix_comm::{dims_create, CartComm, CommStats, Universe};
use mpix_core::{ApplyOptions, Backend, PerfSummary, Section, TraceLevel, Workspace};
use mpix_dmp::halo::make_exchange;
use mpix_dmp::{Decomposition, DistArray, HaloMode, SparsePoints};
use mpix_solvers::{ricker_wavelet, KernelKind, ModelSpec, Propagator};

use crate::check::NormCheck;
use crate::report::{metric, Metric};
use crate::spans::Spans;
use crate::stats::{median, quantile, Rng};
use crate::POISONED;

/// Ricker peak frequency of the point source.
const F0: f64 = 20.0;
/// Timed samples taken even when `--seconds` is already spent.
const MIN_SAMPLES: usize = 2;
/// Slab threads of the (untimed) oracle run.
const ORACLE_THREADS: usize = 2;
/// Untimed exchanges before the timed `HaloExchange::exchange` calls.
const EXCHANGE_WARMUP: usize = 20;
const EXCHANGE_CALLS: usize = 200;

#[derive(Clone, Debug)]
pub struct SolverWorkload {
    pub name: &'static str,
    pub kind: KernelKind,
    pub so: u32,
    /// Interior points per dimension; the absorbing layer adds `2 * nbl`.
    pub edge: usize,
    pub nbl: usize,
    pub nt: i64,
    pub ranks: usize,
    pub mode: HaloMode,
    pub backend: Backend,
    /// Cold set-ups per run; `setup_s` is their median.
    pub cold_setups: usize,
    /// Untimed whole runs between the set-ups and the timed samples.
    pub warmup: usize,
}

/// Compute-bound, peak-OI kernel (paper Fig. 7) on one rank: the
/// `compute` section is nearly all of the wall clock.
pub fn tti_so8_compute() -> SolverWorkload {
    SolverWorkload {
        name: "tti-so8-compute",
        kind: KernelKind::Tti,
        so: 8,
        edge: 48,
        nbl: 4,
        nt: 12,
        ranks: 1,
        mode: HaloMode::Basic,
        backend: Backend::Jit,
        cold_setups: 21,
        warmup: 1,
    }
}

/// Memory-bound kernel with a deep halo on two ranks in full (overlap)
/// mode: the regime where communication and REMAINDER loops matter.
pub fn acoustic_so16_halo_full() -> SolverWorkload {
    SolverWorkload {
        name: "acoustic-so16-halo-full",
        kind: KernelKind::Acoustic,
        so: 16,
        edge: 48,
        nbl: 4,
        nt: 128,
        ranks: 2,
        mode: HaloMode::Full,
        backend: Backend::Jit,
        cold_setups: 31,
        warmup: 3,
    }
}

/// Source offset from the model centre, in grid points, before the
/// seeded mirroring.
const SOURCE_OFFSET: [i64; 3] = [1, 2, 3];

/// The seeded part of a solver workload's input: where the point source
/// sits. The seed mirrors a fixed off-centre offset through the centre
/// along each axis and may swap the two undecomposed axes. Every choice
/// is a mirror image of the others in a model that is symmetric about its
/// centre and split along x, so every seed does the same work.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub offset: Vec<i64>,
}

impl SolverWorkload {
    pub fn inputs(&self, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut offset: Vec<i64> = SOURCE_OFFSET
            .iter()
            .map(|o| if rng.next_u64() & 1 == 1 { -o } else { *o })
            .collect();
        if rng.next_u64() & 1 == 1 {
            offset.swap(1, 2);
        }
        Inputs { offset }
    }

    pub fn spec(&self) -> ModelSpec {
        ModelSpec::new(&[self.edge; 3]).with_nbl(self.nbl)
    }

    /// Run options of the measured configuration.
    pub fn opts(&self, p: &Propagator, nt: i64) -> ApplyOptions {
        p.apply_options(nt)
            .with_backend(self.backend)
            .with_ranks(self.ranks)
            .with_mode(self.mode)
            .with_threads(1)
            .with_verify(false)
    }

    /// The oracle configuration: scalar bytecode on one rank, its slabs
    /// split over [`ORACLE_THREADS`] threads (disjoint slabs evaluate
    /// every point exactly as one thread would).
    pub fn oracle_opts(&self, p: &Propagator) -> ApplyOptions {
        p.apply_options(self.nt)
            .with_backend(Backend::Bytecode)
            .with_vector_width(0)
            .with_ranks(1)
            .with_threads(ORACLE_THREADS)
            .with_mode(HaloMode::Basic)
            .with_verify(false)
    }
}

/// Register the seeded Ricker point source (dt²/m-scaled for the
/// second-order kernels, dt-scaled for the first-order systems).
pub fn inject_source(p: &Propagator, inputs: &Inputs, nt: usize, ws: &mut Workspace) {
    let signal = ricker_wavelet(F0, p.dt, nt);
    let spacing = vec![p.spec.spacing; p.spec.shape.len()];
    let at: Vec<f64> = p
        .spec
        .center_coords()
        .iter()
        .zip(&inputs.offset)
        .map(|(c, o)| c + *o as f64 * p.spec.spacing)
        .collect();
    let scale = match p.kind {
        KernelKind::Acoustic | KernelKind::Tti => (p.dt * p.dt / p.spec.m()) as f32,
        _ => p.dt as f32,
    };
    for f in p.source_fields() {
        let pts = SparsePoints::new(vec![at.clone()], spacing.clone());
        ws.add_injection(f, pts, signal.clone(), vec![scale]);
    }
}

/// Comm-layer counter growth over one run, largest over ranks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommDelta {
    pub msgs: u64,
    pub bytes: u64,
    pub copied: u64,
    pub bufs: u64,
    pub parks: u64,
}

impl CommDelta {
    fn of(before: &CommStats, after: &CommStats) -> CommDelta {
        CommDelta {
            msgs: after.msgs_sent - before.msgs_sent,
            bytes: after.bytes_sent - before.bytes_sent,
            copied: after.bytes_copied - before.bytes_copied,
            bufs: after.bufs_allocated - before.bufs_allocated,
            parks: after.recv_parks - before.recv_parks,
        }
    }

    fn max(self, o: CommDelta) -> CommDelta {
        CommDelta {
            msgs: self.msgs.max(o.msgs),
            bytes: self.bytes.max(o.bytes),
            copied: self.copied.max(o.copied),
            bufs: self.bufs.max(o.bufs),
            parks: self.parks.max(o.parks),
        }
    }
}

/// What one whole `Operator::run` showed from outside.
pub struct RunObs {
    pub wall: f64,
    pub norm: f64,
    pub summary: PerfSummary,
    /// Slowest rank's init closure.
    pub init_s: f64,
    pub comm: CommDelta,
    /// Bytes of every field buffer on every rank (halos and time
    /// buffers included).
    pub array_bytes: u64,
}

/// Largest per-rank time in section `s` (traced runs only).
pub fn max_section(summary: &PerfSummary, s: Section) -> f64 {
    summary
        .per_rank
        .iter()
        .map(|r| r.section_secs(s))
        .fold(0.0, f64::max)
}

/// The slowest rank's sum of sections.
pub fn slowest_rank_sections(summary: &PerfSummary) -> f64 {
    summary
        .per_rank
        .iter()
        .max_by(|a, b| a.total_secs.total_cmp(&b.total_secs))
        .map_or(0.0, |r| r.sections.iter().sum())
}

impl RunObs {
    pub fn section(&self, s: Section) -> f64 {
        max_section(&self.summary, s)
    }

    /// Wall minus the slowest rank's sum of sections: rank spawn,
    /// workspace, init, extract and summary time.
    pub fn unattributed(&self) -> f64 {
        self.wall - slowest_rank_sections(&self.summary)
    }
}

/// Runs one propagator with the seeded inputs and records each run as a
/// span with the init and extract closures as children.
pub struct Runner<'a> {
    pub p: &'a Propagator,
    pub inputs: &'a Inputs,
    /// Length of the source signal (the workload's step count).
    pub signal_nt: usize,
    pub spans: &'a Spans,
}

impl Runner<'_> {
    /// One whole `Operator::run`, recorded as span `name` of operation `op`.
    pub fn run(
        &self,
        opts: &ApplyOptions,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
    ) -> RunObs {
        let Runner {
            p,
            inputs,
            signal_nt,
            spans,
        } = *self;
        let run_id = spans.id();
        let inits: Mutex<Vec<(f64, CommStats)>> = Mutex::new(Vec::new());
        let start = Instant::now();
        let out = p.op.run(
            opts,
            |ws| {
                let t0 = Instant::now();
                let before = ws.cart.comm().stats();
                p.init(ws);
                inject_source(p, inputs, signal_nt, ws);
                let t1 = Instant::now();
                spans.leaf(op, Some(run_id), "solvers.init", t0, t1);
                inits
                    .lock()
                    .expect(POISONED)
                    .push(((t1 - t0).as_secs_f64(), before));
            },
            |ws| {
                let t0 = Instant::now();
                let after = ws.cart.comm().stats();
                let norm = ws.field_final(p.main_field()).norm2(ws.cart.comm());
                let bytes: usize = ws
                    .fields
                    .iter()
                    .flat_map(|f| &f.buffers)
                    .map(|b| b.raw().len() * 4)
                    .sum();
                spans.leaf(op, Some(run_id), "core.extract", t0, Instant::now());
                (ws.cart.rank(), after, norm, bytes as u64)
            },
        );
        let end = Instant::now();
        spans.push(run_id, op, parent, name, start, end);
        let inits = inits.into_inner().expect(POISONED);
        let mut comm = CommDelta::default();
        for (rank, after, _, _) in &out.results {
            let before = inits.iter().map(|(_, b)| b).find(|b| b.rank == *rank);
            if let Some(before) = before {
                comm = comm.max(CommDelta::of(before, after));
            }
        }
        RunObs {
            wall: (end - start).as_secs_f64(),
            norm: out.results[0].2,
            summary: out.summary,
            init_s: inits.iter().map(|(s, _)| *s).fold(0.0, f64::max),
            comm,
            array_bytes: out.results.iter().map(|r| r.3).sum(),
        }
    }
}

/// One cold set-up: `Propagator::build` + `executable_for` + a first
/// `Operator::run` with nt = 1 on the fresh operator.
pub struct ColdObs {
    pub build_s: f64,
    pub compile_s: f64,
    pub first_step_s: f64,
    pub total_s: f64,
    pub jit_modules: u64,
    pub exec_compiles: u64,
}

/// Median `exchange` time in µs of the full-mode halo exchange on a
/// `global` array split over `ranks`, slowest rank per call.
pub fn exchange_us(global: &[usize], ranks: usize, radius: usize, spans: &Spans, op: u64) -> f64 {
    let dims = dims_create(ranks, global.len());
    let per_rank: Vec<Vec<f64>> = Universe::run(ranks, |comm| {
        let cart = CartComm::new(comm, &dims);
        let decomp = Arc::new(Decomposition::new(global, &dims));
        let mut arr = DistArray::new(decomp, cart.coords(), radius);
        for (i, v) in arr.raw_mut().iter_mut().enumerate() {
            *v = (i % 97) as f32;
        }
        let mut ex = make_exchange(HaloMode::Full);
        for _ in 0..EXCHANGE_WARMUP {
            ex.exchange(&cart, &mut arr, radius, 0);
        }
        (0..EXCHANGE_CALLS)
            .map(|_| {
                let t0 = Instant::now();
                ex.exchange(&cart, &mut arr, radius, 0);
                let t1 = Instant::now();
                spans.leaf(op, None, "dmp.exchange", t0, t1);
                (t1 - t0).as_secs_f64()
            })
            .collect()
    });
    let slowest: Vec<f64> = (0..EXCHANGE_CALLS)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0, f64::max))
        .collect();
    median(&slowest) * 1e6
}

/// Everything one invocation measured on a solver workload.
pub struct SolverRun {
    pub workload: SolverWorkload,
    pub inputs: Inputs,
    pub cold: Vec<ColdObs>,
    /// Executable compiles and JIT modules during the warm-up runs
    /// (0 unless something recompiles per run).
    pub warm_exec_compiles: u64,
    pub warm_jit_modules: u64,
    pub untraced: Vec<RunObs>,
    pub traced: Vec<RunObs>,
    /// Comm buffers allocated by a full run beyond those of a 2-step run.
    pub steady_bufs: u64,
    pub exchange_us: f64,
    /// One check per timed sample against the oracle.
    pub checks: Vec<NormCheck>,
    pub points_per_step: u64,
    pub grid_points: u64,
    pub flops_per_pt: usize,
    pub bytes_per_pt: usize,
}

/// Run a solver workload: cold set-ups, warm-up, `seconds` of timed
/// samples (alternating untraced and traced when `traced`), then the
/// oracle check. `fault` is injected into every measured run (tests
/// only; the oracle stays clean).
pub fn run(
    w: &SolverWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &Spans,
    fault: Option<Fault>,
) -> SolverRun {
    let inputs = w.inputs(seed);
    let nt = w.nt as usize;
    let mut op = 0u64;
    let mut next_op = || {
        op += 1;
        op
    };
    let with_fault = |o: ApplyOptions| ApplyOptions { fault, ..o };

    // Cold set-ups; the last one's operator serves the warm runs.
    let mut cold = Vec::new();
    let mut prop = None;
    for _ in 0..w.cold_setups.max(1) {
        let id = next_op();
        let root = spans.id();
        let (jit0, exec0) = (jit_modules_built(), exec_compiles());
        let t0 = Instant::now();
        let p = Propagator::build(w.kind, w.spec(), w.so);
        let t1 = Instant::now();
        let opts1 = with_fault(w.opts(&p, 1));
        let _exec = p.op.executable_for(&opts1);
        let t2 = Instant::now();
        spans.leaf(id, Some(root), "ir.build", t0, t1);
        spans.leaf(id, Some(root), "codegen.compile", t1, t2);
        let runner = Runner {
            p: &p,
            inputs: &inputs,
            signal_nt: nt,
            spans,
        };
        let first = runner.run(&opts1, id, Some(root), "codegen.first_step");
        let t3 = Instant::now();
        spans.push(root, id, None, "setup", t0, t3);
        cold.push(ColdObs {
            build_s: (t1 - t0).as_secs_f64(),
            compile_s: (t2 - t1).as_secs_f64(),
            first_step_s: first.wall,
            total_s: (t3 - t0).as_secs_f64(),
            jit_modules: jit_modules_built() - jit0,
            exec_compiles: exec_compiles() - exec0,
        });
        prop = Some(p);
    }
    let p = prop.expect("at least one cold set-up");
    let opts = with_fault(w.opts(&p, w.nt));
    let runner = Runner {
        p: &p,
        inputs: &inputs,
        signal_nt: nt,
        spans,
    };

    let (jit0, exec0) = (jit_modules_built(), exec_compiles());
    for _ in 0..w.warmup {
        let id = next_op();
        runner.run(&opts, id, None, "warmup");
    }
    let warm_jit_modules = jit_modules_built() - jit0;
    let warm_exec_compiles = exec_compiles() - exec0;

    let traced_opts = opts.clone().with_trace(TraceLevel::Summary);
    let (mut untraced, mut traced_runs) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < MIN_SAMPLES || Instant::now() < deadline {
        let id = next_op();
        if traced && i % 2 == 1 {
            traced_runs.push(runner.run(&traced_opts, id, None, "sample.traced"));
        } else {
            untraced.push(runner.run(&opts, id, None, "sample"));
        }
        i += 1;
    }

    let (mut steady_bufs, mut exch) = (0, 0.0);
    if traced {
        let id = next_op();
        let short = runner.run(&with_fault(w.opts(&p, 2)), id, None, "steady.baseline");
        steady_bufs = untraced[0].comm.bufs.saturating_sub(short.comm.bufs);
        let global = w.spec().padded_shape();
        exch = exchange_us(&global, w.ranks, w.so as usize / 2, spans, next_op());
    }

    let id = next_op();
    let oracle = runner.run(&w.oracle_opts(&p), id, None, "oracle");
    let checks = untraced
        .iter()
        .chain(&traced_runs)
        .map(|r| NormCheck::new(r.norm, oracle.norm))
        .collect();

    SolverRun {
        workload: w.clone(),
        inputs,
        cold,
        warm_exec_compiles,
        warm_jit_modules,
        steady_bufs,
        exchange_us: exch,
        checks,
        points_per_step: p.points_per_step(),
        grid_points: p.op.grid().num_points() as u64,
        flops_per_pt: p.op.bytecode_flops(),
        bytes_per_pt: p.op.op_counts().bytes(),
        untraced,
        traced: traced_runs,
    }
}

impl SolverRun {
    pub fn working_set_bytes(&self) -> u64 {
        self.untraced[0].array_bytes
    }

    pub fn attempted(&self) -> u64 {
        (self.untraced.len() + self.traced.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.passed()).count() as u64
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let walls: Vec<f64> = self.untraced.iter().map(|r| r.wall).collect();
        let work = self.points_per_step as f64 * self.workload.nt as f64;
        let gpts: Vec<f64> = walls.iter().map(|w| work / w / 1e9).collect();
        let rate: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
        let setup: Vec<f64> = self.cold.iter().map(|c| c.total_s).collect();
        vec![
            metric("setup_s", median(&setup), "s"),
            metric("gpts", median(&gpts), "GPts/s"),
            metric("jobs_per_s", median(&rate), "1/s"),
            metric("job_p50_ms", median(&walls) * 1e3, "ms"),
            metric("job_p95_ms", quantile(&walls, 0.95) * 1e3, "ms"),
        ]
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        let cold = |f: fn(&ColdObs) -> f64| median(&self.cold.iter().map(f).collect::<Vec<_>>());
        let tr =
            |f: &dyn Fn(&RunObs) -> f64| median(&self.traced.iter().map(f).collect::<Vec<_>>());
        let un =
            |f: &dyn Fn(&RunObs) -> f64| median(&self.untraced.iter().map(f).collect::<Vec<_>>());
        let nt = self.workload.nt as f64;
        let flops = self.flops_per_pt as f64 * self.grid_points as f64 * nt;
        let kernel = |r: &RunObs| r.section(Section::Compute) + r.section(Section::Remainder);
        let untraced_wall = un(&|r| r.wall);
        vec![
            metric("ir.build_s", cold(|c| c.build_s), "s"),
            metric("ir.flops_per_pt", self.flops_per_pt as f64, "flop"),
            metric("codegen.compile_s", cold(|c| c.compile_s), "s"),
            metric(
                "codegen.jit_modules",
                cold(|c| c.jit_modules as f64) + self.warm_jit_modules as f64,
                "count",
            ),
            metric(
                "codegen.exec_compiles",
                cold(|c| c.exec_compiles as f64) + self.warm_exec_compiles as f64,
                "count",
            ),
            metric("codegen.first_step_s", cold(|c| c.first_step_s), "s"),
            metric(
                "codegen.compute_s",
                tr(&|r| r.section(Section::Compute)),
                "s",
            ),
            metric(
                "codegen.remainder_s",
                tr(&|r| r.section(Section::Remainder)),
                "s",
            ),
            metric(
                "codegen.gflops",
                tr(&|r| flops / kernel(r) / 1e9),
                "GFlop/s",
            ),
            metric(
                "codegen.flops_per_byte",
                self.flops_per_pt as f64 / self.bytes_per_pt as f64,
                "flop/B",
            ),
            metric("dmp.pack_s", tr(&|r| r.section(Section::HaloPack)), "s"),
            metric("dmp.unpack_s", tr(&|r| r.section(Section::HaloUnpack)), "s"),
            metric("dmp.exchange_us", self.exchange_us, "us"),
            metric("comm.send_s", tr(&|r| r.section(Section::HaloSend)), "s"),
            metric("comm.wait_s", tr(&|r| r.section(Section::HaloWait)), "s"),
            metric(
                "comm.msgs_per_step",
                un(&|r| r.comm.msgs as f64 / nt),
                "count",
            ),
            metric(
                "comm.bytes_per_step",
                un(&|r| r.comm.bytes as f64 / nt),
                "B",
            ),
            metric(
                "comm.copied_per_step",
                un(&|r| r.comm.copied as f64 / nt),
                "B",
            ),
            metric("comm.steady_bufs", self.steady_bufs as f64, "count"),
            metric("comm.recv_parks", un(&|r| r.comm.parks as f64), "count"),
            metric("solvers.init_s", un(&|r| r.init_s), "s"),
            metric("solvers.source_s", tr(&|r| r.section(Section::Source)), "s"),
            metric("core.unattributed_s", tr(&|r| r.unattributed()), "s"),
            metric("serve.queue_ms_p50", 0.0, "ms"),
            metric("serve.queue_ms_p95", 0.0, "ms"),
            metric("serve.run_ms_p50", 0.0, "ms"),
            metric("serve.hit_rate", 0.0, "ratio"),
            metric("serve.compiles", 0.0, "count"),
            metric("serve.rejected", 0.0, "count"),
            metric("serve.failed", 0.0, "count"),
            metric(
                "trace.overhead_frac",
                tr(&|r| r.wall) / untraced_wall - 1.0,
                "ratio",
            ),
        ]
    }
}
