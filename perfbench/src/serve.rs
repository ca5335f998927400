//! The `serve-mixed` workload: a closed loop of two clients against a
//! fresh `Server` per sample, each client submitting its next job only
//! once its previous job's record has reached the sink.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpix_codegen::{exec_compiles, jit_modules_built};
use mpix_core::serve::{Job, RecordSink, ServeConfig, ServeReport, Server};
use mpix_core::{ApplyOptions, PerfSummary, Section, TraceLevel};
use mpix_dmp::HaloMode;
use mpix_json::Value;
use mpix_solvers::{KernelKind, ModelSpec, Propagator};

use crate::report::{metric, Metric};
use crate::solver::{exchange_us, max_section, slowest_rank_sections};
use crate::spans::Spans;
use crate::stats::{median, quantile, Rng};
use crate::POISONED;

pub const NAME: &str = "serve-mixed";
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const POOL_RANKS: usize = 2;
/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Untimed whole samples before the timed ones.
const WARMUP: usize = 1;
const MIN_SAMPLES: usize = 2;
const SDOS: [u32; 2] = [4, 8];
const MODES: [HaloMode; 3] = [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full];
const RANKS: [usize; 2] = [1, 2];
const STEPS: [i64; 2] = [2, 4];
const F0: f64 = 20.0;

/// Tiny per-kernel models: 12³ padded (acoustic, TTI), 8³ (elastic,
/// viscoelastic).
fn model(kind: KernelKind) -> ModelSpec {
    match kind {
        KernelKind::Acoustic | KernelKind::Tti => ModelSpec::new(&[8, 8, 8]).with_nbl(2),
        KernelKind::Elastic | KernelKind::Viscoelastic => ModelSpec::new(&[4, 4, 4]).with_nbl(2),
    }
}

/// Every distinct operator of the mix, kernel × SDO.
pub fn build_operators() -> Vec<Arc<Propagator>> {
    KernelKind::all()
        .into_iter()
        .flat_map(|k| SDOS.map(|so| Arc::new(Propagator::build(k, model(k), so))))
        .collect()
}

/// Points a job must report updated: the executor counts every point of
/// every cluster's space loop once per step.
pub fn expected_points(p: &Propagator, nt: i64) -> u64 {
    (p.op.clusters().len() * p.op.grid().num_points()) as u64 * nt as u64
}

/// One job of the mix.
#[derive(Clone, Copy, Debug)]
pub struct MixEntry {
    /// Index into [`build_operators`].
    pub op: usize,
    pub mode: HaloMode,
    pub ranks: usize,
    pub nt: i64,
}

/// The seeded job sequence: every operator × mode × ranks × steps
/// combination once, in a seeded order. The multiset is fixed, so every
/// seed does the same work and meets the same set of cache keys; the
/// seed decides the order of misses and hits.
pub fn mix(seed: u64, n_ops: usize) -> Vec<MixEntry> {
    let mut out = Vec::new();
    for op in 0..n_ops {
        for mode in MODES {
            for ranks in RANKS {
                for nt in STEPS {
                    out.push(MixEntry {
                        op,
                        mode,
                        ranks,
                        nt,
                    });
                }
            }
        }
    }
    Rng::new(seed).shuffle(&mut out);
    out
}

/// The repo's default run options for a job (scalar bytecode today).
pub fn job_opts(p: &Propagator, e: &MixEntry) -> ApplyOptions {
    p.apply_options(e.nt).with_mode(e.mode).with_ranks(e.ranks)
}

/// One job as the client saw it.
pub struct JobObs {
    pub entry: MixEntry,
    pub submit: Instant,
    /// First rank's init-closure start.
    pub init_start: Instant,
    /// Slowest rank's init closure.
    pub init_s: f64,
    /// When the job's record reached the sink.
    pub arrival: Instant,
    pub status: String,
    pub summary: Option<PerfSummary>,
    /// Bytecode flops of the whole job.
    pub flops: f64,
}

impl JobObs {
    pub fn latency(&self) -> f64 {
        (self.arrival - self.submit).as_secs_f64()
    }
    pub fn queue(&self) -> f64 {
        self.init_start
            .saturating_duration_since(self.submit)
            .as_secs_f64()
    }
    pub fn run(&self) -> f64 {
        self.arrival
            .saturating_duration_since(self.init_start)
            .as_secs_f64()
    }
    fn points(&self) -> u64 {
        self.summary
            .as_ref()
            .map_or(0, |s| s.per_rank.iter().map(|r| r.points_updated).sum())
    }
    fn section(&self, s: Section) -> f64 {
        self.summary.as_ref().map_or(0.0, |sum| max_section(sum, s))
    }
    fn unattributed(&self) -> f64 {
        self.run() - self.summary.as_ref().map_or(0.0, slowest_rank_sections)
    }
}

/// One server lifetime: start, the whole mix, shutdown.
pub struct SampleObs {
    /// `Server::start` to the last record's arrival.
    pub wall: f64,
    /// `Server::start` to the first record's arrival.
    pub first_record: f64,
    pub jobs: Vec<JobObs>,
    pub report: ServeReport,
    pub exec_compiles: u64,
    pub jit_modules: u64,
}

impl SampleObs {
    fn sum(&self, f: impl Fn(&JobObs) -> f64) -> f64 {
        self.jobs.iter().map(f).sum()
    }
}

type Inbox = Arc<(Mutex<HashMap<u64, (Instant, Value)>>, Condvar)>;

fn sample(
    ops: &[Arc<Propagator>],
    jobs: &[MixEntry],
    trace: TraceLevel,
    spans: &Arc<Spans>,
    next_op: &mut dyn FnMut() -> u64,
) -> SampleObs {
    let inbox: Inbox = Arc::new((Mutex::new(HashMap::new()), Condvar::new()));
    let sink: RecordSink = {
        let inbox = Arc::clone(&inbox);
        Arc::new(move |v: &Value| {
            if v.get("record").and_then(Value::as_str) != Some("job") {
                return;
            }
            let arrival = Instant::now();
            let id = v.get("job").and_then(Value::as_u64).expect("job id");
            inbox
                .0
                .lock()
                .expect(POISONED)
                .insert(id, (arrival, v.clone()));
            inbox.1.notify_all();
        })
    };
    let sample_op = next_op();
    let sample_id = spans.id();
    let job_ops: Vec<u64> = jobs.iter().map(|_| next_op()).collect();
    let (jit0, exec0) = (jit_modules_built(), exec_compiles());
    let t0 = Instant::now();
    let server = Server::start(
        ServeConfig::default()
            .with_workers(WORKERS)
            .with_pool_ranks(POOL_RANKS),
        sink,
    );
    spans.leaf(
        sample_op,
        Some(sample_id),
        "serve.start",
        t0,
        Instant::now(),
    );
    let cursor = AtomicUsize::new(0);
    let observed: Mutex<Vec<JobObs>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (server, cursor, observed, inbox) = (&server, &cursor, &observed, &inbox);
            let job_ops = &job_ops;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = jobs.get(i).copied() else {
                    break;
                };
                let p = Arc::clone(&ops[entry.op]);
                let op = job_ops[i];
                let job_id = spans.id();
                let run_id = spans.id();
                // (first init start, slowest init) across this job's ranks.
                let inits: Arc<Mutex<(Option<Instant>, f64)>> = Arc::default();
                let init = {
                    let (p, inits) = (Arc::clone(&p), Arc::clone(&inits));
                    let spans = Arc::clone(spans);
                    move |ws: &mut mpix_core::Workspace| {
                        let t = Instant::now();
                        p.init(ws);
                        p.add_ricker_source(ws, F0, entry.nt as usize);
                        let end = Instant::now();
                        spans.leaf(op, Some(run_id), "solvers.init", t, end);
                        let mut g = inits.lock().expect(POISONED);
                        g.0 = Some(g.0.map_or(t, |s: Instant| s.min(t)));
                        g.1 = g.1.max((end - t).as_secs_f64());
                    }
                };
                let opts = job_opts(&p, &entry).with_trace(trace);
                let job =
                    Job::new(&format!("client-{client}"), Arc::clone(&p.op), opts).with_init(init);
                let submit = Instant::now();
                let id = server.submit(job);
                let (arrival, record) = {
                    let mut g = inbox.0.lock().expect(POISONED);
                    loop {
                        if let Some(r) = g.remove(&id) {
                            break r;
                        }
                        g = inbox.1.wait(g).expect(POISONED);
                    }
                };
                let (first_init, init_s) = *inits.lock().expect(POISONED);
                let init_start = first_init.unwrap_or(arrival);
                spans.push(job_id, op, Some(sample_id), "serve.job", submit, arrival);
                spans.leaf(op, Some(job_id), "serve.queue", submit, init_start);
                spans.push(run_id, op, Some(job_id), "serve.run", init_start, arrival);
                observed.lock().expect(POISONED).push(JobObs {
                    entry,
                    submit,
                    init_start,
                    init_s,
                    arrival,
                    status: record
                        .get("status")
                        .and_then(Value::as_str)
                        .unwrap_or("missing")
                        .to_string(),
                    summary: record
                        .get("summary")
                        .and_then(|s| PerfSummary::from_json(s).ok()),
                    flops: (p.op.bytecode_flops() * p.op.grid().num_points()) as f64
                        * entry.nt as f64,
                });
            });
        }
    });
    let jobs = observed.into_inner().expect(POISONED);
    let last = jobs.iter().map(|j| j.arrival).max().unwrap_or(t0);
    let first = jobs.iter().map(|j| j.arrival).min().unwrap_or(t0);
    let t_shut = Instant::now();
    let report = server.shutdown();
    spans.leaf(
        sample_op,
        Some(sample_id),
        "serve.shutdown",
        t_shut,
        Instant::now(),
    );
    spans.push(
        sample_id,
        sample_op,
        None,
        "serve.sample",
        t0,
        Instant::now(),
    );
    SampleObs {
        wall: (last - t0).as_secs_f64(),
        first_record: (first - t0).as_secs_f64(),
        jobs,
        report,
        exec_compiles: exec_compiles() - exec0,
        jit_modules: jit_modules_built() - jit0,
    }
}

/// Everything one invocation measured on `serve-mixed`.
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub compile_s: f64,
    pub untraced: Vec<SampleObs>,
    pub traced: Vec<SampleObs>,
    pub exchange_us: f64,
    pub unique_keys: usize,
    pub jobs_per_sample: usize,
    pub flops_per_pt: f64,
    pub bytes_per_pt: f64,
    pub working_set_bytes: u64,
    /// Human-readable reasons for every failed check.
    pub failures: Vec<String>,
}

pub fn run(seed: u64, seconds: f64, traced: bool, spans: &Arc<Spans>) -> ServeRun {
    let mut op = 0u64;
    let mut next_op = move || {
        op += 1;
        op
    };

    // Set-up: build every distinct operator, start a server.
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut ops = Vec::new();
    for _ in 0..SETUPS {
        let id = next_op();
        let root = spans.id();
        let t0 = Instant::now();
        ops = build_operators();
        let t1 = Instant::now();
        let server = Server::start(
            ServeConfig::default()
                .with_workers(WORKERS)
                .with_pool_ranks(POOL_RANKS),
            Arc::new(|_: &Value| {}),
        );
        let t2 = Instant::now();
        spans.leaf(id, Some(root), "ir.build", t0, t1);
        spans.leaf(id, Some(root), "serve.start", t1, t2);
        spans.push(root, id, None, "setup", t0, t2);
        server.shutdown();
        setup_s.push((t2 - t0).as_secs_f64());
        build_s.push((t1 - t0).as_secs_f64());
    }

    let jobs = mix(seed, ops.len());
    // One job per distinct cache key (rank count and steps never key).
    let mut keys = HashSet::new();
    let distinct: Vec<MixEntry> = jobs
        .iter()
        .filter(|e| keys.insert(ops[e.op].op.content_key(&job_opts(&ops[e.op], e))))
        .copied()
        .collect();
    let n = jobs.len() as f64;
    let flops_per_pt = jobs
        .iter()
        .map(|e| ops[e.op].op.bytecode_flops() as f64)
        .sum::<f64>()
        / n;
    let bytes_per_pt = jobs
        .iter()
        .map(|e| ops[e.op].op.op_counts().bytes() as f64)
        .sum::<f64>()
        / n;

    for _ in 0..WARMUP {
        sample(&ops, &jobs, TraceLevel::Off, spans, &mut next_op);
    }
    let (mut untraced, mut traced_runs) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < MIN_SAMPLES || Instant::now() < deadline {
        if traced && i % 2 == 1 {
            traced_runs.push(sample(
                &ops,
                &jobs,
                TraceLevel::Summary,
                spans,
                &mut next_op,
            ));
        } else {
            untraced.push(sample(&ops, &jobs, TraceLevel::Off, spans, &mut next_op));
        }
        i += 1;
    }

    let (mut compile_s, mut exch) = (0.0, 0.0);
    if traced {
        // The compile the server's cache misses pay, timed by calling the
        // uncached compile once per distinct key.
        let id = next_op();
        for e in &distinct {
            let t0 = Instant::now();
            let _ = ops[e.op]
                .op
                .compile_executable_for(&job_opts(&ops[e.op], e));
            let t1 = Instant::now();
            spans.leaf(id, None, "codegen.compile", t0, t1);
            compile_s += (t1 - t0).as_secs_f64();
        }
        // The exchange of the mix's most common geometry: SDO 8 on two
        // ranks of a 12³ padded model.
        let global = model(KernelKind::Acoustic).padded_shape();
        exch = exchange_us(&global, 2, 4, spans, next_op());
    }

    let working_set_bytes = ops
        .iter()
        .map(|p| {
            let pts = p.op.grid().num_points() as u64;
            pts * p.op.op_counts().working_set() as u64 * 4
        })
        .max()
        .unwrap_or(0);
    let mut out = ServeRun {
        setup_s,
        build_s,
        compile_s,
        untraced,
        traced: traced_runs,
        exchange_us: exch,
        unique_keys: distinct.len(),
        jobs_per_sample: jobs.len(),
        flops_per_pt,
        bytes_per_pt,
        working_set_bytes,
        failures: Vec::new(),
    };
    out.failures = out.check(&ops);
    out
}

impl ServeRun {
    fn samples(&self) -> impl Iterator<Item = &SampleObs> {
        self.untraced.iter().chain(&self.traced)
    }

    /// Every job done with the expected points updated; per sample,
    /// compiles equal the unique keys and the process-wide compile count.
    fn check(&self, ops: &[Arc<Propagator>]) -> Vec<String> {
        let mut bad = Vec::new();
        for (s, obs) in self.samples().enumerate() {
            if obs.jobs.len() != self.jobs_per_sample {
                bad.push(format!(
                    "sample {s}: {} of {} jobs came back",
                    obs.jobs.len(),
                    self.jobs_per_sample
                ));
            }
            for j in &obs.jobs {
                let want = expected_points(&ops[j.entry.op], j.entry.nt);
                if j.status != "done" || j.points() != want {
                    bad.push(format!(
                        "sample {s}: {} job ended '{}' with {} points (expected {want})",
                        ops[j.entry.op].kind.name(),
                        j.status,
                        j.points()
                    ));
                }
            }
            let r = &obs.report;
            if r.cache.compiles != self.unique_keys as u64 || obs.exec_compiles != r.cache.compiles
            {
                bad.push(format!(
                    "sample {s}: {} cache compiles, {} executable compiles, {} unique keys",
                    r.cache.compiles, obs.exec_compiles, self.unique_keys
                ));
            }
            if r.done != self.jobs_per_sample as u64 || r.rejected + r.failed > 0 {
                bad.push(format!(
                    "sample {s}: {} done, {} rejected, {} failed",
                    r.done, r.rejected, r.failed
                ));
            }
        }
        bad
    }

    pub fn attempted(&self) -> u64 {
        self.samples()
            .map(|s| s.jobs.len() as u64)
            .sum::<u64>()
            .max(1)
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let per = |f: &dyn Fn(&SampleObs) -> f64| {
            median(&self.untraced.iter().map(f).collect::<Vec<_>>())
        };
        let lat: Vec<f64> = self
            .untraced
            .iter()
            .flat_map(|s| s.jobs.iter().map(JobObs::latency))
            .collect();
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric(
                "gpts",
                per(&|s| s.sum(|j| j.points() as f64) / s.wall / 1e9),
                "GPts/s",
            ),
            metric("jobs_per_s", per(&|s| s.jobs.len() as f64 / s.wall), "1/s"),
            metric("job_p50_ms", median(&lat) * 1e3, "ms"),
            metric("job_p95_ms", quantile(&lat, 0.95) * 1e3, "ms"),
        ]
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        let un = |f: &dyn Fn(&SampleObs) -> f64| {
            median(&self.untraced.iter().map(f).collect::<Vec<_>>())
        };
        let tr =
            |f: &dyn Fn(&SampleObs) -> f64| median(&self.traced.iter().map(f).collect::<Vec<_>>());
        let sec = |s: Section| tr(&|o| o.sum(|j| j.section(s)));
        let jobs = || self.untraced.iter().flat_map(|s| &s.jobs);
        let queue: Vec<f64> = jobs().map(JobObs::queue).collect();
        let run: Vec<f64> = jobs().map(JobObs::run).collect();
        let kernel = |j: &JobObs| j.section(Section::Compute) + j.section(Section::Remainder);
        let copied = |o: &SampleObs| {
            let bytes: u64 = o
                .jobs
                .iter()
                .flat_map(|j| j.summary.iter().flat_map(|s| &s.per_rank))
                .map(|r| r.bytes_copied)
                .sum();
            bytes as f64 / o.sum(|j| j.entry.nt as f64)
        };
        let total =
            |f: fn(&ServeReport) -> u64| self.samples().map(|s| f(&s.report)).sum::<u64>() as f64;
        vec![
            metric("ir.build_s", median(&self.build_s), "s"),
            metric("ir.flops_per_pt", self.flops_per_pt, "flop"),
            metric("codegen.compile_s", self.compile_s, "s"),
            metric(
                "codegen.jit_modules",
                un(&|s| s.jit_modules as f64),
                "count",
            ),
            metric(
                "codegen.exec_compiles",
                un(&|s| s.exec_compiles as f64),
                "count",
            ),
            metric("codegen.first_step_s", un(&|s| s.first_record), "s"),
            metric("codegen.compute_s", sec(Section::Compute), "s"),
            metric("codegen.remainder_s", sec(Section::Remainder), "s"),
            metric(
                "codegen.gflops",
                tr(&|o| o.sum(|j| j.flops) / o.sum(kernel) / 1e9),
                "GFlop/s",
            ),
            metric(
                "codegen.flops_per_byte",
                self.flops_per_pt / self.bytes_per_pt,
                "flop/B",
            ),
            metric("dmp.pack_s", sec(Section::HaloPack), "s"),
            metric("dmp.unpack_s", sec(Section::HaloUnpack), "s"),
            metric("dmp.exchange_us", self.exchange_us, "us"),
            metric("comm.send_s", sec(Section::HaloSend), "s"),
            metric("comm.wait_s", sec(Section::HaloWait), "s"),
            metric("comm.msgs_per_step", 0.0, "count"),
            metric("comm.bytes_per_step", 0.0, "B"),
            metric("comm.copied_per_step", tr(&copied), "B"),
            metric("comm.steady_bufs", 0.0, "count"),
            metric("comm.recv_parks", 0.0, "count"),
            metric("solvers.init_s", un(&|s| s.sum(|j| j.init_s)), "s"),
            metric("solvers.source_s", sec(Section::Source), "s"),
            metric(
                "core.unattributed_s",
                tr(&|o| o.sum(JobObs::unattributed)),
                "s",
            ),
            metric("serve.queue_ms_p50", median(&queue) * 1e3, "ms"),
            metric("serve.queue_ms_p95", quantile(&queue, 0.95) * 1e3, "ms"),
            metric("serve.run_ms_p50", median(&run) * 1e3, "ms"),
            metric(
                "serve.hit_rate",
                un(&|s| s.report.cache.hit_rate()),
                "ratio",
            ),
            metric(
                "serve.compiles",
                un(&|s| s.report.cache.compiles as f64),
                "count",
            ),
            metric("serve.rejected", total(|r| r.rejected), "count"),
            metric("serve.failed", total(|r| r.failed), "count"),
            metric(
                "trace.overhead_frac",
                tr(&|s| s.wall) / un(&|s| s.wall) - 1.0,
                "ratio",
            ),
        ]
    }
}
