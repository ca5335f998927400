//! Static forward floating-point error analysis (`mpix-analysis::fp`).
//!
//! Extends the interval abstract interpretation of [`crate::lint::absint`]
//! to a *paired* domain: each abstract value is an [`ErrVal`] — an
//! interval bounding the exact (real-arithmetic) value together with an
//! upper bound on the absolute round-off error any finite-precision
//! evaluation of the expression can have accumulated. Propagation is
//! first-order forward error analysis with the second-order terms kept
//! (so the bounds are sound, not merely asymptotic):
//!
//! * one rounding event on a value with exact range `V` and incoming
//!   error `e` yields `e + u·(|V| + e)` where `u` is the unit roundoff
//!   of the compute precision — plus the smallest normal number, since
//!   kernels run with subnormals flushed (FTZ|DAZ, `mpix_codegen::fpenv`);
//! * `x·y` propagates `|x|·e_y + |y|·e_x + e_x·e_y` before rounding;
//! * division, `sqrt`, `exp` use derivative bounds over the interval
//!   (going unbounded — honestly — when the argument can reach the
//!   singularity within its error bound).
//!
//! The analysis runs over **both** IR levels: cluster statements (where
//! the cancellation structure is visible, `MPX015`) and the
//! compiled+fused bytecode (what actually executes). The bytecode walk
//! consumes the rounding-semantics table declared by
//! [`Op::rounding_events`], so the fused `MulAdd`/`LoadMulAdd`
//! superinstructions are modeled by their *declared* rounding behaviour:
//! two roundings under [`RoundingModel::EXECUTED`] (bitwise-identical to
//! the unfused pair), one under a hypothetical FMA-contracting backend.
//!
//! Multi-step propagation mirrors the executor: per (field, time-buffer)
//! state, clusters applied in program order each step, buffer rotation
//! by `(t + toff) mod buffers`, halo reads union-ed with the padded
//! boundary zeros. From the final state [`certify`] builds the
//! machine-checkable precision certificate validated empirically by
//! `tests/fp_certs.rs`.
//!
//! Lints owned by this module: `MPX015` (catastrophic cancellation),
//! `MPX016` (accumulation-chain amplification), `MPX017` (insufficient
//! storage precision), `MPX018` (unsafe wire demotion, advisory),
//! `MPX019` (CFL instability). Without scalar bindings and field ranges
//! only the structural detectors (`MPX015`/`MPX016`) can fire — the
//! rest require provable *finite* bounds, keeping the
//! coarseness-costs-recall-never-precision contract of the lint family.

use std::collections::BTreeMap;

use mpix_codegen::bytecode::{
    compile_cluster, fuse_cluster, CoeffSrc, CompiledCluster, Op, RoundingModel,
};
use mpix_ir::cluster::{Cluster, Stmt};
use mpix_ir::iexpr::IExpr;
use mpix_ir::precision::{StoragePrecision, WireFormat};
use mpix_symbolic::{Context, FieldId, UnaryFn};

use crate::lint::absint::{Interval, TOP};
use crate::lint::LintFinding;

pub mod certify;
pub mod cfl;

pub use certify::{certify, PrecisionCertificate};

/// Relative-error amplification above which a provable near-cancellation
/// is reported (`MPX015`).
pub const CANCEL_KAPPA: f64 = 1024.0;

/// Affine envelope for fused accumulation chains (`MPX016`): a chain may
/// run `SLOPE · ndim · (2r+1) + INTERCEPT` rounding events before the
/// certificate's affine-in-radius error budget is considered violated.
/// The slope covers the cross-derivative stencils (quadratic tap counts
/// at the shipped radii) with measured margin.
pub const ACC_CHAIN_SLOPE: usize = 8;
pub const ACC_CHAIN_INTERCEPT: usize = 16;

/// Relative-error threshold for `MPX017` under f32 storage.
pub const STORAGE_REL_THRESHOLD: f64 = 1e-2;

/// Wire-vs-native bound ratio above which demotion is flagged (`MPX018`).
pub const WIRE_RATIO_THRESHOLD: f64 = 4.0;

/// The paired abstract value: exact-value interval + absolute error
/// bound. `err = +∞` means "no bound provable".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrVal {
    pub val: Interval,
    pub err: f64,
}

impl ErrVal {
    pub fn exact(val: Interval) -> ErrVal {
        ErrVal { val, err: 0.0 }
    }

    pub fn unknown() -> ErrVal {
        ErrVal {
            val: TOP,
            err: f64::INFINITY,
        }
    }
}

/// `a * b` with the convention `0 · ∞ = 0` (an exactly-zero factor
/// annihilates even an unbounded one; plain f64 gives NaN).
fn safe_mul(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

fn safe_add(a: f64, b: f64) -> f64 {
    let s = a + b;
    if s.is_nan() {
        f64::INFINITY
    } else {
        s
    }
}

/// One compute precision's rounding behaviour: the unit roundoff `u`
/// plus `flush`, the absolute error a result flushed to zero (FTZ) or
/// an operand read as zero (DAZ) can add — below the smallest normal
/// number for kernel arithmetic, `0` for software conversions.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Rounding {
    u: f64,
    flush: f64,
}

impl Rounding {
    fn new(storage: StoragePrecision) -> Rounding {
        Rounding {
            u: storage.unit_roundoff(),
            flush: storage.min_normal(),
        }
    }

    /// A software conversion (wire demotion): rounds, never flushes.
    fn ieee(u: f64) -> Rounding {
        Rounding { u, flush: 0.0 }
    }
}

/// Error after one rounding event on exact range `val` with incoming
/// error `err`.
fn round_err(val: Interval, err: f64, r: Rounding) -> f64 {
    safe_add(
        safe_add(err, safe_mul(r.u, safe_add(val.mag(), err))),
        r.flush,
    )
}

/// Representation error of storing the exact value `c` (the `1/(1-u)`
/// slack makes the bound valid relative to the *stored* magnitude too;
/// a flushed run may also read a subnormal constant as zero).
fn repr_err(c: f64, r: Rounding) -> f64 {
    r.u * c.abs() * (1.0 + 2.0 * r.u) + r.flush
}

/// `x + y`; `round` says whether the result is rounded (false only for
/// the virtual intermediate of a contracted FMA).
fn ev_add(x: ErrVal, y: ErrVal, r: Rounding, round: bool) -> ErrVal {
    let val = x.val.add(y.val);
    let err = safe_add(x.err, y.err);
    ErrVal {
        val,
        err: if round { round_err(val, err, r) } else { err },
    }
}

/// `x · y` with the full (second-order kept) propagation term.
fn ev_mul(x: ErrVal, y: ErrVal, r: Rounding, round: bool) -> ErrVal {
    let val = x.val.mul(y.val);
    let prop = safe_add(
        safe_add(safe_mul(x.val.mag(), y.err), safe_mul(y.val.mag(), x.err)),
        safe_mul(x.err, y.err),
    );
    ErrVal {
        val,
        err: if round { round_err(val, prop, r) } else { prop },
    }
}

/// Interval reciprocal keeping finite bounds (absint's `pow` widens
/// positive bases to `[min_positive, ∞]`, which would make every
/// downstream magnitude unbounded).
fn recip_interval(v: Interval) -> Interval {
    if v.lo <= 0.0 && v.hi >= 0.0 {
        return TOP;
    }
    Interval {
        lo: 1.0 / v.hi,
        hi: 1.0 / v.lo,
    }
}

/// `1 / x`: unbounded when the argument can reach zero within its error.
fn ev_recip(x: ErrVal, r: Rounding) -> ErrVal {
    let val = recip_interval(x.val);
    let m = x.val.min_mag();
    if m <= x.err || m == 0.0 {
        return ErrVal {
            val,
            err: f64::INFINITY,
        };
    }
    // |1/x̂ - 1/x| = |x - x̂| / |x·x̂| ≤ e / (m·(m - e)).
    let prop = x.err / (m * (m - x.err));
    ErrVal {
        val,
        err: round_err(val, prop, r),
    }
}

/// `x^n`, mirroring the `powi` lowering (`v*v`, `1/v`, `1/(v*v)` fast
/// paths; a multiply chain bounds the generic case from above).
fn ev_pow(x: ErrVal, n: i32, r: Rounding) -> ErrVal {
    match n {
        0 => ErrVal::exact(Interval::point(1.0)),
        1 => x,
        2 => ev_mul(x, x, r, true),
        -1 => ev_recip(x, r),
        -2 => ev_recip(ev_mul(x, x, r, true), r),
        n => {
            let mut acc = x;
            for _ in 1..n.unsigned_abs() {
                acc = ev_mul(acc, x, r, true);
            }
            if n < 0 {
                acc = ev_recip(acc, r);
            }
            acc
        }
    }
}

/// Elementary functions: derivative-bound propagation plus `2u` per
/// call (libm results are faithful, not correctly rounded).
fn ev_func(f: UnaryFn, x: ErrVal, r: Rounding) -> ErrVal {
    match f {
        UnaryFn::Abs => ErrVal {
            val: Interval {
                lo: x.val.min_mag(),
                hi: x.val.mag(),
            },
            err: x.err,
        },
        UnaryFn::Sqrt => {
            if x.val.hi < 0.0 {
                return ErrVal::unknown(); // NaN; MPX003 territory
            }
            let val = Interval {
                lo: x.val.lo.max(0.0).sqrt(),
                hi: x.val.hi.sqrt(),
            };
            let a = x.val.lo - x.err; // argument lower bound incl. error
            let prop = if x.err == 0.0 {
                0.0
            } else if a > 0.0 {
                x.err / (2.0 * a.sqrt())
            } else {
                f64::INFINITY // derivative unbounded at 0
            };
            ErrVal {
                val,
                err: safe_add(round_err(val, prop, r), safe_mul(r.u, val.mag())),
            }
        }
        UnaryFn::Exp => {
            let val = Interval {
                lo: x.val.lo.exp(),
                hi: x.val.hi.exp(),
            };
            let dmax = safe_add(x.val.hi, x.err).min(709.0).exp();
            let prop = safe_mul(x.err, dmax);
            ErrVal {
                val,
                err: safe_add(round_err(val, prop, r), safe_mul(r.u, val.mag())),
            }
        }
        UnaryFn::Sin | UnaryFn::Cos => {
            let val = Interval { lo: -1.0, hi: 1.0 };
            ErrVal {
                val,
                err: safe_add(safe_add(x.err, 2.0 * r.u), r.flush), // |d sin| ≤ 1; 2u call slack
            }
        }
    }
}

/// Precision scenario one analysis runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpConfig {
    /// Storage *and* compute element type (the backends compute in the
    /// storage precision).
    pub storage: StoragePrecision,
    /// Halo wire format; demoted formats add one rounding per
    /// halo-offset load.
    pub wire: WireFormat,
    /// Declared rounding semantics of the fused superinstructions.
    pub model: RoundingModel,
}

impl FpConfig {
    /// What ships today: f32 storage/compute, native wire, two-rounding
    /// fused ops.
    pub fn shipped() -> FpConfig {
        FpConfig {
            storage: StoragePrecision::F32,
            wire: WireFormat::Native,
            model: RoundingModel::EXECUTED,
        }
    }
}

/// Externally supplied facts the certificate is conditional on: scalar
/// bindings (`dt`, `h_*`, solver scalars), initial per-field value
/// ranges, and the step count to propagate through. The empty
/// ([`FpAssumptions::structural`]) variant drives the purely structural
/// detectors used inside `lint_operator`.
#[derive(Clone, Debug, Default)]
pub struct FpAssumptions {
    pub scalars: BTreeMap<String, f64>,
    pub fields: BTreeMap<FieldId, Interval>,
    pub steps: u32,
}

impl FpAssumptions {
    /// No bindings: value intervals are ⊤, errors unbounded, one step.
    pub fn structural() -> FpAssumptions {
        FpAssumptions {
            steps: 1,
            ..Default::default()
        }
    }

    pub fn with_scalar(mut self, name: &str, v: f64) -> Self {
        self.scalars.insert(name.to_string(), v);
        self
    }

    pub fn with_field(mut self, f: FieldId, lo: f64, hi: f64) -> Self {
        self.fields.insert(f, Interval { lo, hi });
        self
    }

    pub fn with_steps(mut self, steps: u32) -> Self {
        self.steps = steps;
        self
    }
}

/// Final per-field result of one analysis.
#[derive(Clone, Copy, Debug)]
pub struct FieldBound {
    /// Union of the exact-value intervals over all time buffers.
    pub val: Interval,
    /// Max absolute error bound over all time buffers.
    pub abs: f64,
    /// Normwise relative bound: `abs / max |val|`.
    pub rel: f64,
    /// Whether any cluster stores this field (materials stay exact).
    pub written: bool,
}

/// Result of [`analyze`]: per-field bounds plus the lint findings the
/// run could prove.
#[derive(Clone, Debug, Default)]
pub struct FpReport {
    pub fields: BTreeMap<FieldId, FieldBound>,
    pub findings: Vec<LintFinding>,
}

impl FpReport {
    /// Absolute bound for a field by name, `None` if unknown.
    pub fn abs_bound(&self, ctx: &Context, name: &str) -> Option<f64> {
        let f = ctx.field_by_name(name)?;
        self.fields.get(&f.id).map(|b| b.abs)
    }
}

/// Per-(field, buffer) abstract state.
type State = BTreeMap<(FieldId, usize), ErrVal>;

fn buffer_index(t: i64, toff: i32, nb: usize) -> usize {
    (((t + toff as i64) % nb as i64 + nb as i64) % nb as i64) as usize
}

/// Scalar binding → abstract value. Unbound `dt`/`h_*` keep absint's
/// positive-unbounded abstraction; everything else unbound is ⊤.
fn scalar_ev(name: &str, scalars: &BTreeMap<String, f64>, r: Rounding) -> ErrVal {
    match scalars.get(name) {
        Some(&v) => ErrVal {
            val: Interval::point(v),
            err: repr_err(v, r),
        },
        None if name == "dt" || name.starts_with("h_") => ErrVal {
            val: crate::lint::absint::POSITIVE,
            err: f64::INFINITY,
        },
        None => ErrVal::unknown(),
    }
}

/// IExpr-level evaluation (params, Lets and the `MPX015` detector live
/// here; loads read the *initial* field assumptions).
struct IEnv<'a> {
    scalars: &'a BTreeMap<String, f64>,
    fields: &'a BTreeMap<FieldId, Interval>,
    params: BTreeMap<usize, ErrVal>,
    temps: Vec<ErrVal>,
    r: Rounding,
}

fn eval_iexpr(e: &IExpr, env: &IEnv, loc: &str, out: &mut Vec<LintFinding>) -> ErrVal {
    match e {
        IExpr::Const(c) => {
            if !c.is_finite() {
                return ErrVal::unknown();
            }
            ErrVal {
                val: Interval::point(*c),
                err: repr_err(*c, env.r),
            }
        }
        IExpr::Sym(s) => scalar_ev(s, env.scalars, env.r),
        IExpr::Load(a) => match env.fields.get(&a.field) {
            Some(&iv) => ErrVal {
                val: iv,
                err: env.r.flush,
            },
            None => ErrVal::unknown(),
        },
        IExpr::Temp(i) => env.temps.get(*i).copied().unwrap_or(ErrVal::unknown()),
        IExpr::Param(i) => env.params.get(i).copied().unwrap_or(ErrVal::unknown()),
        IExpr::Add(xs) => {
            let mut acc: Option<ErrVal> = None;
            for x in xs {
                let y = eval_iexpr(x, env, loc, out);
                acc = Some(match acc {
                    None => y,
                    Some(a) => {
                        check_cancellation(a, y, loc, out);
                        ev_add(a, y, env.r, true)
                    }
                });
            }
            acc.unwrap_or(ErrVal::exact(Interval::point(0.0)))
        }
        IExpr::Mul(xs) => {
            let mut acc: Option<ErrVal> = None;
            for x in xs {
                let y = eval_iexpr(x, env, loc, out);
                acc = Some(match acc {
                    None => y,
                    Some(a) => ev_mul(a, y, env.r, true),
                });
            }
            acc.unwrap_or(ErrVal::exact(Interval::point(1.0)))
        }
        IExpr::Pow(b, n) => ev_pow(eval_iexpr(b, env, loc, out), *n, env.r),
        IExpr::Func(fx, b) => ev_func(*fx, eval_iexpr(b, env, loc, out), env.r),
    }
}

/// `MPX015`: a provable near-cancellation. Both operands must have
/// finite intervals provably bounded away from zero while the sum's
/// magnitude is at least [`CANCEL_KAPPA`]× smaller than theirs —
/// incoming relative error is amplified by κ at every grid point, not
/// merely at unlucky ones. ⊤ operands (any field load without a
/// declared range) can never fire.
fn check_cancellation(x: ErrVal, y: ErrVal, loc: &str, out: &mut Vec<LintFinding>) {
    let (mx, my) = (x.val.mag(), y.val.mag());
    if !mx.is_finite() || !my.is_finite() || x.val.min_mag() == 0.0 || y.val.min_mag() == 0.0 {
        return;
    }
    let sum = x.val.add(y.val);
    let gross = mx + my;
    if gross > CANCEL_KAPPA * sum.mag() && gross > 0.0 {
        let kappa = if sum.mag() > 0.0 {
            gross / sum.mag()
        } else {
            f64::INFINITY
        };
        out.push(LintFinding::new(
            "MPX015",
            loc,
            format!(
                "operands in [{:.3e}, {:.3e}] and [{:.3e}, {:.3e}] cancel to magnitude \
                 ≤ {:.3e}: relative error is amplified ≥ {kappa:.1e}× (> {CANCEL_KAPPA}) \
                 at every point",
                x.val.lo,
                x.val.hi,
                y.val.lo,
                y.val.hi,
                sum.mag()
            ),
        ));
    }
}

/// `MPX016`: scan the fused bytecode for accumulation chains longer
/// than the affine-in-radius envelope. A chain is a maximal run of
/// `MulAdd`/`LoadMulAdd` accumulations into one stack value; its
/// rounding-event count must stay within
/// `SLOPE · ndim · (2r+1) + INTERCEPT` for the cluster radius `r`.
fn check_accumulation(
    ci: usize,
    cl: &Cluster,
    cc: &CompiledCluster,
    model: RoundingModel,
    out: &mut Vec<LintFinding>,
) {
    let ndim = cl.ndim().max(1);
    let r = cl.max_radius(ndim).into_iter().max().unwrap_or(0);
    let budget = ACC_CHAIN_SLOPE * ndim * (2 * r + 1) + ACC_CHAIN_INTERCEPT;
    let mut run_events = 0usize;
    let mut run_start = 0usize;
    let mut reported = false;
    for (i, op) in cc.ops.iter().enumerate() {
        match op {
            Op::MulAdd | Op::LoadMulAdd { .. } => {
                if run_events == 0 {
                    run_start = i;
                }
                run_events += op.rounding_events(model);
                if run_events > budget && !reported {
                    reported = true;
                    out.push(LintFinding::new(
                        "MPX016",
                        format!("cluster {ci} / op {run_start}"),
                        format!(
                            "fused accumulation chain reaches {run_events} rounding events \
                             (> affine envelope {budget} = {ACC_CHAIN_SLOPE}·{ndim}·(2·{r}+1) \
                             + {ACC_CHAIN_INTERCEPT}): first-order error growth exceeds the \
                             certificate's affine-in-radius budget"
                        ),
                    ));
                }
            }
            _ => run_events = 0,
        }
    }
}

/// One full analysis: param evaluation, `steps` time steps of bytecode
/// abstract execution, structural detectors, and (when bindings allow)
/// the precision/CFL verdicts.
pub fn analyze(
    ctx: &Context,
    clusters: &[Cluster],
    cfg: FpConfig,
    assume: &FpAssumptions,
) -> FpReport {
    let r = Rounding::new(cfg.storage);
    let wire = cfg.wire.unit_roundoff().map(Rounding::ieee);
    let mut findings = Vec::new();

    // Hoisted parameters evaluate once, before the time loop.
    let mut ienv = IEnv {
        scalars: &assume.scalars,
        fields: &assume.fields,
        params: BTreeMap::new(),
        temps: Vec::new(),
        r,
    };
    for (ci, cl) in clusters.iter().enumerate() {
        for (pi, value) in &cl.params {
            let loc = format!("cluster {ci} / r{pi}");
            let ev = eval_iexpr(value, &ienv, &loc, &mut findings);
            ienv.params.insert(*pi, ev);
        }
    }

    // Cluster-statement pass: MPX015 runs where the Add structure is
    // visible (fusion rewrites it into accumulation chains).
    for (ci, cl) in clusters.iter().enumerate() {
        ienv.temps = vec![ErrVal::unknown(); cl.num_temps];
        for (si, stmt) in cl.stmts.iter().enumerate() {
            let loc = format!("cluster {ci} / stmt {si}");
            let ev = eval_iexpr(stmt.value(), &ienv, &loc, &mut findings);
            if let Stmt::Let { temp, .. } = stmt {
                if let Some(t) = ienv.temps.get_mut(*temp) {
                    *t = ev;
                }
            }
        }
    }
    let params = std::mem::take(&mut ienv.params);

    // Bytecode pass: what runs is what is analyzed.
    let compiled: Vec<CompiledCluster> = clusters
        .iter()
        .map(|cl| fuse_cluster(compile_cluster(cl)))
        .collect();
    for ((ci, cl), cc) in clusters.iter().enumerate().zip(&compiled) {
        check_accumulation(ci, cl, cc, cfg.model, &mut findings);
    }

    // Multi-step state propagation. Initial data is bit-identical in
    // every arm (the f64 shadow widens the f32 seed), so initial error
    // is zero where a range is assumed — bar a subnormal seed a flushed
    // run reads as zero — and unbounded where it is not.
    let mut state: State = BTreeMap::new();
    let mut written: BTreeMap<FieldId, bool> = BTreeMap::new();
    for fld in ctx.fields() {
        written.insert(fld.id, false);
        let ev = match assume.fields.get(&fld.id) {
            Some(&iv) => ErrVal {
                val: iv,
                err: r.flush,
            },
            None => ErrVal::unknown(),
        };
        for b in 0..fld.time_buffers() {
            state.insert((fld.id, b), ev);
        }
    }
    let mut stack: Vec<ErrVal> = Vec::new();
    for t in 0..assume.steps.max(1) as i64 {
        for cc in &compiled {
            stack.clear();
            let mut eval = BytecodeEval {
                cc,
                ctx,
                t,
                r,
                wire,
                model: cfg.model,
                scalars: &assume.scalars,
                params: &params,
                temps: vec![ErrVal::unknown(); cc.num_temps],
            };
            for op in &cc.ops {
                eval.step(*op, &mut state, &mut written, &mut stack);
            }
        }
    }

    // Fold buffers into per-field bounds.
    let mut fields = BTreeMap::new();
    for fld in ctx.fields() {
        let mut val: Option<Interval> = None;
        let mut abs = 0.0f64;
        for b in 0..fld.time_buffers() {
            if let Some(ev) = state.get(&(fld.id, b)) {
                val = Some(match val {
                    None => ev.val,
                    Some(v) => v.union(ev.val),
                });
                abs = abs.max(ev.err);
            }
        }
        let val = val.unwrap_or(TOP);
        let rel = abs / val.mag().max(f64::MIN_POSITIVE);
        let written = written.get(&fld.id).copied().unwrap_or(false);
        fields.insert(
            fld.id,
            FieldBound {
                val,
                abs,
                rel,
                written,
            },
        );
    }

    // MPX017: only on *provably finite* bounds — without bindings the
    // bound is ∞ = unknown, and unknown is not a finding.
    if cfg.storage == StoragePrecision::F32 && cfg.wire == WireFormat::Native {
        for (f, b) in &fields {
            if b.written && b.rel.is_finite() && b.rel > STORAGE_REL_THRESHOLD {
                findings.push(LintFinding::new(
                    "MPX017",
                    format!("field {}", ctx.field(*f).name),
                    format!(
                        "certified relative error {:.2e} after {} step(s) exceeds {:.0e} \
                         under the shipped f32 storage — this field needs f64 (or a \
                         reformulated update)",
                        b.rel,
                        assume.steps.max(1),
                        STORAGE_REL_THRESHOLD
                    ),
                ));
            }
        }
    }

    // MPX019 needs concrete dt/h bindings.
    if !assume.scalars.is_empty() {
        findings.extend(cfl::lint_cfl(ctx, clusters, &assume.scalars));
    }

    FpReport { fields, findings }
}

/// The bytecode abstract machine for one cluster at one time step.
struct BytecodeEval<'a> {
    cc: &'a CompiledCluster,
    ctx: &'a Context,
    t: i64,
    r: Rounding,
    wire: Option<Rounding>,
    model: RoundingModel,
    scalars: &'a BTreeMap<String, f64>,
    params: &'a BTreeMap<usize, ErrVal>,
    temps: Vec<ErrVal>,
}

impl BytecodeEval<'_> {
    fn coeff(&self, src: CoeffSrc) -> ErrVal {
        match src {
            CoeffSrc::Const(i) => {
                let c = self.cc.consts[i as usize] as f64;
                ErrVal {
                    val: Interval::point(c),
                    err: repr_err(c, self.r),
                }
            }
            CoeffSrc::Scalar(i) => scalar_ev(&self.cc.scalars[i as usize], self.scalars, self.r),
            CoeffSrc::Param(i) => self
                .params
                .get(&(i as usize))
                .copied()
                .unwrap_or_else(ErrVal::unknown),
        }
    }

    fn load(&self, stream: u32, off: u32, state: &State) -> ErrVal {
        let (f, toff) = self.cc.streams[stream as usize];
        let nb = self.ctx.field(f).time_buffers();
        let bi = buffer_index(self.t, toff, nb);
        let mut ev = state.get(&(f, bi)).copied().unwrap_or_else(ErrVal::unknown);
        let deltas = &self.cc.offsets[off as usize].1;
        if deltas.iter().any(|&d| d != 0) {
            // A halo-offset read can land on padded boundary zeros
            // (exact) or wire-demoted neighbour cells.
            ev.val = ev.val.union(Interval::point(0.0));
            if let Some(w) = self.wire {
                ev.err = round_err(ev.val, ev.err, w);
            }
        }
        ev
    }

    /// Execute one bytecode op in the paired domain.
    fn step(
        &mut self,
        op: Op,
        state: &mut State,
        written: &mut BTreeMap<FieldId, bool>,
        stack: &mut Vec<ErrVal>,
    ) {
        let r = self.r;
        match op {
            Op::Const(_) | Op::Scalar(_) | Op::Param(_) => {
                stack.push(self.coeff(op.as_coeff().expect("invariant push")));
            }
            Op::Temp(i) => stack.push(self.temps[i as usize]),
            Op::SetTemp(i) => {
                let ev = stack.pop().expect("stack underflow");
                self.temps[i as usize] = ev;
            }
            Op::Load { stream, off } => stack.push(self.load(stream, off, state)),
            Op::Store { stream } => {
                let ev = stack.pop().expect("stack underflow");
                let (f, toff) = self.cc.streams[stream as usize];
                let nb = self.ctx.field(f).time_buffers();
                state.insert((f, buffer_index(self.t, toff, nb)), ev);
                written.insert(f, true);
            }
            Op::Add => {
                let y = stack.pop().expect("stack underflow");
                let x = stack.pop().expect("stack underflow");
                stack.push(ev_add(x, y, r, true));
            }
            Op::Mul => {
                let y = stack.pop().expect("stack underflow");
                let x = stack.pop().expect("stack underflow");
                stack.push(ev_mul(x, y, r, true));
            }
            Op::Pow(n) => {
                let x = stack.pop().expect("stack underflow");
                stack.push(ev_pow(x, n, r));
            }
            Op::Call(f) => {
                let x = stack.pop().expect("stack underflow");
                stack.push(ev_func(f, x, r));
            }
            Op::MulAdd => {
                let y = stack.pop().expect("stack underflow");
                let x = stack.pop().expect("stack underflow");
                let acc = stack.pop().expect("stack underflow");
                let prod = ev_mul(x, y, r, !self.model.fma_contraction);
                stack.push(ev_add(acc, prod, r, true));
            }
            Op::LoadMul { coeff, stream, off } => {
                let c = self.coeff(coeff);
                let l = self.load(stream, off, state);
                stack.push(ev_mul(c, l, r, true));
            }
            Op::LoadMulAdd { coeff, stream, off } => {
                let acc = stack.pop().expect("stack underflow");
                let c = self.coeff(coeff);
                let l = self.load(stream, off, state);
                let prod = ev_mul(c, l, r, !self.model.fma_contraction);
                stack.push(ev_add(acc, prod, r, true));
            }
        }
    }
}

/// The structural entry point `lint_operator` folds in: no bindings, so
/// only `MPX015`/`MPX016` can fire — shipped operators must stay clean.
pub fn lint_clusters_fp(ctx: &Context, clusters: &[Cluster]) -> Vec<LintFinding> {
    analyze(
        ctx,
        clusters,
        FpConfig::shipped(),
        &FpAssumptions::structural(),
    )
    .findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_ir::cluster::Stmt;
    use mpix_ir::iexpr::IdxAccess;
    use mpix_symbolic::Grid;
    use std::collections::BTreeSet;

    fn ctx_1d(time_order: u32) -> (Context, FieldId) {
        let mut ctx = Context::new();
        let grid = Grid::new(&[32], &[1.0]);
        let u = ctx.add_time_function("u", &grid, 2, time_order);
        (ctx, u.id())
    }

    fn load(f: FieldId, toff: i32, d: i32) -> IExpr {
        IExpr::Load(IdxAccess {
            field: f,
            time_offset: toff,
            deltas: vec![d],
        })
    }

    fn store_cluster(f: FieldId, value: IExpr) -> Cluster {
        Cluster {
            stmts: vec![Stmt::Store {
                target: IdxAccess {
                    field: f,
                    time_offset: 1,
                    deltas: vec![0],
                },
                value,
            }],
            params: Vec::new(),
            num_temps: 0,
        }
    }

    fn codes(findings: &[LintFinding]) -> BTreeSet<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    /// A `(2r+1)`-tap star accumulation over `u[t]` with unit-ish
    /// coefficients, repeated `reps` times — radius stays 1 while the
    /// fused chain grows linearly with `reps`.
    fn chain_cluster(f: FieldId, reps: usize) -> Cluster {
        let mut terms = Vec::new();
        for i in 0..reps {
            for d in [-1, 0, 1] {
                // Mildly amplifying taps (Σ|c| > 1), so multi-step error
                // genuinely compounds instead of contracting away.
                let c = 0.4 + 0.001 * i as f64 + 0.0001 * (d + 1) as f64;
                terms.push(IExpr::Mul(vec![IExpr::Const(c), load(f, 0, d)]));
            }
        }
        store_cluster(f, IExpr::Add(terms))
    }

    #[test]
    fn cancellation_detector_fires_on_provable_near_cancellation() {
        let (ctx, u) = ctx_1d(1);
        // (1.0 + -0.99999)·u[t]: the constant pair provably cancels by
        // ~2e5 ≫ 2^10 at every point.
        let bad = store_cluster(
            u,
            IExpr::Mul(vec![
                IExpr::Add(vec![IExpr::Const(1.0), IExpr::Const(-0.99999)]),
                load(u, 0, 0),
            ]),
        );
        let found = lint_clusters_fp(&ctx, &[bad]);
        assert_eq!(codes(&found), BTreeSet::from(["MPX015"]), "{found:?}");

        // Same shape, no cancellation: clean.
        let good = store_cluster(
            u,
            IExpr::Mul(vec![
                IExpr::Add(vec![IExpr::Const(1.0), IExpr::Const(0.99999)]),
                load(u, 0, 0),
            ]),
        );
        assert!(lint_clusters_fp(&ctx, &[good]).is_empty());
    }

    #[test]
    fn accumulation_chain_detector_respects_affine_envelope() {
        let (ctx, u) = ctx_1d(1);
        // Radius 1 in 1-D: budget = 8·1·3 + 16 = 40 rounding events.
        // 34 reps × 3 taps ≈ 203 events: far past the envelope.
        let found = lint_clusters_fp(&ctx, &[chain_cluster(u, 34)]);
        assert_eq!(codes(&found), BTreeSet::from(["MPX016"]), "{found:?}");
        // 6 reps × 3 taps ≈ 35 events: inside it.
        assert!(lint_clusters_fp(&ctx, &[chain_cluster(u, 6)]).is_empty());
    }

    #[test]
    fn fused_rounding_model_and_storage_width_order_the_bounds() {
        let (ctx, u) = ctx_1d(1);
        let clusters = vec![chain_cluster(u, 6)];
        let assume = FpAssumptions::default()
            .with_field(u, 1.0, 2.0)
            .with_steps(2);
        let bound = |storage, model| {
            let cfg = FpConfig {
                storage,
                wire: WireFormat::Native,
                model,
            };
            let rep = analyze(&ctx, &clusters, cfg, &assume);
            rep.fields[&u].abs
        };
        let f64e = bound(StoragePrecision::F64, RoundingModel::EXECUTED);
        let f32e = bound(StoragePrecision::F32, RoundingModel::EXECUTED);
        let bf16e = bound(StoragePrecision::Bf16, RoundingModel::EXECUTED);
        let f32c = bound(StoragePrecision::F32, RoundingModel::FMA_CONTRACTED);
        assert!(f64e.is_finite() && f64e > 0.0, "{f64e}");
        // Wider storage → tighter certified bound.
        assert!(f64e < f32e && f32e < bf16e, "{f64e} {f32e} {bf16e}");
        // One rounding per fused pair (contraction) beats two — the
        // superinstructions are modeled distinctly from the unfused
        // semantics, not assumed equivalent.
        assert!(f32c < f32e, "{f32c} {f32e}");
    }

    #[test]
    fn insufficient_storage_precision_needs_a_finite_proof() {
        let (ctx, u) = ctx_1d(1);
        // (u[t] − 1)·10⁶ + u[t] on u ∈ [1, 1+1e-6]: the subtraction
        // cancels ~all significand, then the 10⁶ scale turns the f32
        // rounding of the sum into ~10% relative error.
        let amp = store_cluster(
            u,
            IExpr::Add(vec![
                IExpr::Mul(vec![
                    IExpr::Const(1e6),
                    IExpr::Add(vec![load(u, 0, 0), IExpr::Const(-1.0)]),
                ]),
                load(u, 0, 0),
            ]),
        );
        let assume = FpAssumptions::default()
            .with_field(u, 1.0, 1.0 + 1e-6)
            .with_steps(1);
        let rep = analyze(
            &ctx,
            std::slice::from_ref(&amp),
            FpConfig::shipped(),
            &assume,
        );
        let found = codes(&rep.findings);
        assert!(found.contains("MPX017"), "{:?}", rep.findings);
        // The cancellation that causes it is also called out.
        assert!(found.contains("MPX015"), "{:?}", rep.findings);
        // Without value assumptions the bound is ∞ — unknown is not a
        // finding, so the structural pass must NOT fire MPX017.
        let structural = lint_clusters_fp(&ctx, &[amp]);
        assert!(!codes(&structural).contains("MPX017"), "{structural:?}");
    }

    #[test]
    fn certificate_bounds_are_ordered_and_flag_unsafe_wire_demotion() {
        let (ctx, u) = ctx_1d(1);
        let clusters = vec![chain_cluster(u, 6)];
        let assume = FpAssumptions::default()
            .with_field(u, 1.0, 2.0)
            .with_steps(3);
        let cert = certify(&ctx, &clusters, &assume, "chain-test");
        let f64b = cert.abs_bound("u", StoragePrecision::F64).unwrap();
        let f32b = cert.abs_bound("u", StoragePrecision::F32).unwrap();
        assert!(f64b < f32b, "{f64b} {f32b}");
        // Halo taps at bf16 on the wire cost ~2^-8 relative per load —
        // orders of magnitude over the native-wire f32 bound.
        assert!(
            codes(&cert.findings).contains("MPX018"),
            "{:?}",
            cert.findings
        );
        let json = cert.to_json();
        assert_eq!(
            json.get("schema").and_then(mpix_json::Value::as_str),
            Some(certify::CERT_SCHEMA)
        );
        let field0 = json.get("fields").and_then(|f| f.idx(0)).unwrap();
        assert_eq!(
            field0.get("name").and_then(mpix_json::Value::as_str),
            Some("u")
        );
        assert!(field0.get("storage").and_then(|s| s.get("bf16")).is_some());
        assert!(field0.get("wire").and_then(|s| s.get("f16")).is_some());
    }

    #[test]
    fn multi_step_bounds_grow_monotonically() {
        let (ctx, u) = ctx_1d(1);
        let clusters = vec![chain_cluster(u, 2)];
        let bound = |steps| {
            let assume = FpAssumptions::default()
                .with_field(u, 1.0, 2.0)
                .with_steps(steps);
            analyze(&ctx, &clusters, FpConfig::shipped(), &assume).fields[&u].abs
        };
        let (b1, b2, b3) = (bound(1), bound(2), bound(3));
        assert!(b1 > 0.0 && b1.is_finite());
        assert!(b1 < b2 && b2 < b3, "{b1} {b2} {b3}");
    }

    #[test]
    fn flush_term_bounds_an_all_zero_field() {
        // An all-zero field: every IEEE rounding is exact, so only the
        // flush term can produce a nonzero bound — a few smallest normals.
        let (ctx, u) = ctx_1d(1);
        let clusters = vec![chain_cluster(u, 2)];
        let assume = FpAssumptions::default()
            .with_field(u, 0.0, 0.0)
            .with_steps(2);
        let flushed = analyze(&ctx, &clusters, FpConfig::shipped(), &assume).fields[&u].abs;
        assert!(
            flushed >= f32::MIN_POSITIVE as f64 && flushed < 1e-35,
            "{flushed:e}"
        );
    }
}
