//! C code emission from the lowered IET.
//!
//! Reproduces the style of the paper's generated code (Appendix B,
//! Listing 11): hoisted `float rN = …;` parameters, the rotating-buffer
//! time loop header, per-dimension `for` loops with an
//! `#pragma omp simd aligned(…)` on the vector dimension, aligned array
//! accesses shifted by each field's halo (`u[t1][x + 2][y + 2]`), and
//! halo-exchange call sites where `HaloUpdate`/`HaloWait` nodes sit.
//! Like Devito's operators, the kernel opens by setting the FTZ/DAZ
//! modes (the executor's [`crate::fpenv`] guard does the same).
//!
//! The emitted C is for inspection and golden-testing; execution happens
//! in [`crate::executor`] (see DESIGN.md for the substitution rationale).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use mpix_ir::cluster::Stmt;
use mpix_ir::iet::{Node, RegionKind};
use mpix_ir::iexpr::{IExpr, IdxAccess};
use mpix_symbolic::{Context, FieldKind};

const DIMS: [&str; 3] = ["x", "y", "z"];

/// Emit a complete C kernel for a lowered IET.
pub fn emit_c(iet: &Node, ctx: &Context) -> String {
    let mut out = String::new();
    let mut em = Emitter {
        ctx,
        out: &mut out,
        indent: 0,
        num_params: 0,
    };
    em.node(iet);
    out
}

struct Emitter<'a> {
    ctx: &'a Context,
    out: &'a mut String,
    indent: usize,
    num_params: usize,
}

impl Emitter<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn node(&mut self, n: &Node) {
        match n {
            Node::Callable { name, params, body } => {
                self.line("#include \"xmmintrin.h\"");
                self.line("#include \"pmmintrin.h\"");
                self.line("");
                self.line(&format!("void {name}(const int time_m, const int time_M)"));
                self.line("{");
                self.indent += 1;
                self.line("/* Flush denormal numbers to zero in hardware */");
                self.line("_MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_ON);");
                self.line("_MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);");
                self.num_params = params.iter().map(|(i, _)| i + 1).max().unwrap_or(0);
                for (i, def) in params {
                    let d = c_expr(def, self.ctx, self.num_params);
                    self.line(&format!("float r{i} = {d};"));
                }
                if !params.is_empty() {
                    self.line("");
                }
                for c in body {
                    self.node(c);
                }
                self.indent -= 1;
                self.line("}");
            }
            Node::TimeLoop { body } => {
                let tvars = self.time_vars(body);
                let decl: Vec<String> = tvars
                    .iter()
                    .map(|(k, nb)| format!("t{k} = (time + {k})%({nb})"))
                    .collect();
                let step: Vec<String> = decl.clone();
                self.line(&format!(
                    "for (int time = time_m, {}; time <= time_M; time += 1, {})",
                    decl.join(", "),
                    step.join(", ")
                ));
                self.line("{");
                self.indent += 1;
                for c in body {
                    self.node(c);
                }
                self.indent -= 1;
                self.line("}");
            }
            Node::HaloSpot { exchanges, body } => {
                // Unlowered spot: annotate and descend (the mode pass
                // normally removes these before emission).
                let names = self.xchg_list(exchanges);
                self.line(&format!("/* HaloSpot({names}) */"));
                for c in body {
                    self.node(c);
                }
            }
            Node::HaloUpdate {
                exchanges,
                is_async,
            } => {
                for x in exchanges {
                    let f = self.ctx.field(x.field);
                    let r = x.radius.iter().max().copied().unwrap_or(0);
                    let kind = if *is_async {
                        "haloupdate_begin"
                    } else {
                        "haloupdate"
                    };
                    self.line(&format!(
                        "{kind}_{name}(cart_comm, {tv}, /*radius*/ {r});",
                        name = f.name,
                        tv = self.tvar_of(x.field, x.time_offset),
                    ));
                }
            }
            Node::HaloWait { exchanges } => {
                for x in exchanges {
                    let f = self.ctx.field(x.field);
                    self.line(&format!(
                        "halowait_{name}(cart_comm, {tv});",
                        name = f.name,
                        tv = self.tvar_of(x.field, x.time_offset),
                    ));
                }
            }
            Node::SpaceLoop {
                cluster,
                region,
                block,
                parallel,
            } => {
                let nd = cluster.ndim();
                match region {
                    RegionKind::Core => self.line("/* CORE region */"),
                    RegionKind::Remainder => self.line("/* REMAINDER regions */"),
                    RegionKind::Domain => {}
                }
                if *parallel {
                    self.line("#pragma omp parallel for schedule(static)");
                }
                let bounds = |d: usize, reg: RegionKind| -> (String, String) {
                    let dim = DIMS[d];
                    match reg {
                        RegionKind::Core => {
                            (format!("{dim}_m + r_{dim}"), format!("{dim}_M - r_{dim}"))
                        }
                        _ => (format!("{dim}_m"), format!("{dim}_M")),
                    }
                };
                let mut blocked_note = false;
                for d in 0..nd {
                    let (lo, hi) = bounds(d, *region);
                    if d == nd - 1 {
                        let aligned: BTreeSet<String> = cluster
                            .reads()
                            .iter()
                            .map(|(f, _, _)| self.ctx.field(*f).name.clone())
                            .collect();
                        let list = aligned.into_iter().collect::<Vec<_>>().join(",");
                        self.line(&format!("#pragma omp simd aligned({list}:32)"));
                    } else if *block > 0 && !blocked_note {
                        self.line(&format!("/* blocked by {block} (autotuned tile) */"));
                        blocked_note = true;
                    }
                    self.line(&format!(
                        "for (int {d0} = {lo}; {d0} <= {hi}; {d0} += 1)",
                        d0 = DIMS[d]
                    ));
                    self.line("{");
                    self.indent += 1;
                }
                for s in &cluster.stmts {
                    match s {
                        Stmt::Let { temp, value } => {
                            let rhs = c_expr(value, self.ctx, self.num_params);
                            self.line(&format!("float r{} = {rhs};", self.num_params + temp));
                        }
                        Stmt::Store { target, value } => {
                            let lhs = c_access(target, self.ctx);
                            let rhs = c_expr(value, self.ctx, self.num_params);
                            self.line(&format!("{lhs} = {rhs};"));
                        }
                    }
                }
                for _ in 0..nd {
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Node::Section { name, body } => {
                self.line(&format!("/* section: {name} */"));
                for c in body {
                    self.node(c);
                }
            }
        }
    }

    /// `(k, nb)` pairs for every time-buffer variable used in the body.
    fn time_vars(&self, body: &[Node]) -> Vec<(i64, usize)> {
        let mut set: BTreeSet<(i64, usize)> = BTreeSet::new();
        collect_time_offsets(body, self.ctx, &mut set);
        set.into_iter().collect()
    }

    fn tvar_of(&self, field: mpix_symbolic::FieldId, toff: i32) -> String {
        let f = self.ctx.field(field);
        match f.kind {
            FieldKind::Function => "0".to_string(),
            FieldKind::TimeFunction => {
                let nb = f.time_buffers() as i64;
                format!("t{}", (toff as i64).rem_euclid(nb))
            }
        }
    }

    fn xchg_list(&self, xs: &[mpix_ir::halo::HaloXchg]) -> String {
        xs.iter()
            .map(|x| self.ctx.field(x.field).name.clone())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn collect_time_offsets(body: &[Node], ctx: &Context, set: &mut BTreeSet<(i64, usize)>) {
    for n in body {
        match n {
            Node::SpaceLoop { cluster, .. } => {
                let mut add = |a: &IdxAccess| {
                    let f = ctx.field(a.field);
                    if f.kind == FieldKind::TimeFunction {
                        let nb = f.time_buffers();
                        set.insert(((a.time_offset as i64).rem_euclid(nb as i64), nb));
                    }
                };
                for s in &cluster.stmts {
                    s.value().visit_loads(&mut add);
                    if let Stmt::Store { target, .. } = s {
                        add(target);
                    }
                }
            }
            Node::Callable { body, .. }
            | Node::TimeLoop { body }
            | Node::HaloSpot { body, .. }
            | Node::Section { body, .. } => collect_time_offsets(body, ctx, set),
            _ => {}
        }
    }
}

/// Render an access as aligned C indexing: `u[t1][x + 2][y + 2]`.
fn c_access(a: &IdxAccess, ctx: &Context) -> String {
    let f = ctx.field(a.field);
    let mut s = f.name.clone();
    if f.kind == FieldKind::TimeFunction {
        let nb = f.time_buffers() as i64;
        let _ = write!(s, "[t{}]", (a.time_offset as i64).rem_euclid(nb));
    }
    for (d, &delta) in a.deltas.iter().enumerate() {
        let shift = delta + f.halo() as i32;
        if shift == 0 {
            let _ = write!(s, "[{}]", DIMS[d]);
        } else {
            let _ = write!(s, "[{} + {}]", DIMS[d], shift);
        }
    }
    s
}

/// Render an indexed expression as C.
fn c_expr(e: &IExpr, ctx: &Context, num_params: usize) -> String {
    match e {
        IExpr::Const(c) => c_const(*c),
        IExpr::Sym(s) => s.clone(),
        IExpr::Param(i) => format!("r{i}"),
        IExpr::Temp(i) => format!("r{}", num_params + i),
        IExpr::Load(a) => c_access(a, ctx),
        IExpr::Add(xs) => {
            let mut s = String::from("(");
            for (i, x) in xs.iter().enumerate() {
                let term = c_expr(x, ctx, num_params);
                if i == 0 {
                    s.push_str(&term);
                } else if let Some(stripped) = term.strip_prefix('-') {
                    s.push_str(" - ");
                    s.push_str(stripped);
                } else {
                    s.push_str(" + ");
                    s.push_str(&term);
                }
            }
            s.push(')');
            s
        }
        IExpr::Mul(xs) => {
            // Split numerator / denominator on negative powers.
            let mut num: Vec<String> = Vec::new();
            let mut den: Vec<String> = Vec::new();
            for x in xs {
                match x {
                    IExpr::Pow(b, n) if *n < 0 => {
                        den.push(c_pow_str(b, (-n) as u32, ctx, num_params))
                    }
                    other => num.push(c_expr(other, ctx, num_params)),
                }
            }
            let n = if num.is_empty() {
                "1.0F".to_string()
            } else {
                num.join("*")
            };
            if den.is_empty() {
                n
            } else if num.is_empty() {
                format!("1.0F/({})", den.join("*"))
            } else {
                format!("{n}/({})", den.join("*"))
            }
        }
        IExpr::Pow(b, n) => {
            if *n < 0 {
                format!("1.0F/({})", c_pow_str(b, (-n) as u32, ctx, num_params))
            } else {
                c_pow_str(b, *n as u32, ctx, num_params)
            }
        }
        IExpr::Func(fx, b) => {
            let cname = match fx {
                mpix_symbolic::UnaryFn::Sqrt => "sqrtf",
                mpix_symbolic::UnaryFn::Sin => "sinf",
                mpix_symbolic::UnaryFn::Cos => "cosf",
                mpix_symbolic::UnaryFn::Exp => "expf",
                mpix_symbolic::UnaryFn::Abs => "fabsf",
            };
            format!("{cname}({})", c_expr(b, ctx, num_params))
        }
    }
}

fn c_pow_str(b: &IExpr, n: u32, ctx: &Context, num_params: usize) -> String {
    let base = c_expr(b, ctx, num_params);
    match n {
        0 => "1.0F".to_string(),
        1 => base,
        2..=3 => vec![base; n as usize].join("*"),
        _ => format!("powf({base}, {n})"),
    }
}

fn c_const(c: f64) -> String {
    if c == c.trunc() && c.abs() < 1e15 {
        format!("{:.1}F", c)
    } else {
        format!("{c}F")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_ir::cluster::clusterize;
    use mpix_ir::halo::detect_halo_exchanges;
    use mpix_ir::iet::build_iet;
    use mpix_ir::lowering::lower_equations;
    use mpix_ir::passes::{cse_cluster, lower_halo_spots, MpiMode};
    use mpix_symbolic::{Eq, Grid};

    /// Full pipeline for the paper's Listing 1 diffusion example.
    fn listing1_c(mode: MpiMode) -> String {
        let mut ctx = Context::new();
        let g = Grid::new(&[4, 4], &[2.0, 2.0]);
        let u = ctx.add_time_function("u", &g, 2, 1);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let mut cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "Kernel", 0, false);
        let iet = lower_halo_spots(iet, mode);
        emit_c(&iet, &ctx)
    }

    #[test]
    fn listing11_structure_is_reproduced() {
        let c = listing1_c(MpiMode::Basic);
        // Paper Listing 11 landmarks:
        assert!(c.contains("float r0 = "), "{c}");
        assert!(
            c.contains("1.0F/(h_x*h_x)") || c.contains("1.0F/(h_y*h_y)"),
            "{c}"
        );
        assert!(
            c.contains("for (int time = time_m, t0 = (time + 0)%(2), t1 = (time + 1)%(2)"),
            "{c}"
        );
        assert!(c.contains("#pragma omp simd aligned(u:32)"), "{c}");
        // Aligned accesses: halo 2 for SDO 2 (paper §III d).
        assert!(c.contains("u[t1][x + 2][y + 2]"), "{c}");
        assert!(c.contains("u[t0][x + 2][y + 2]"), "{c}");
        // Neighbour accesses at x+1 / x+3.
        assert!(c.contains("u[t0][x + 1][y + 2]"), "{c}");
        assert!(c.contains("u[t0][x + 3][y + 2]"), "{c}");
        // Halo exchange call before the loop nest.
        assert!(c.contains("haloupdate_u(cart_comm, t0"), "{c}");
        // Devito's FTZ/DAZ prologue opens the kernel, before the params.
        let daz = c
            .find("_MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_ON);")
            .expect("DAZ prologue");
        assert!(
            c.contains("_MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);"),
            "{c}"
        );
        assert!(c.starts_with("#include \"xmmintrin.h\""), "{c}");
        assert!(daz < c.find("float r0 = ").unwrap(), "{c}");
    }

    #[test]
    fn full_mode_emits_overlap_sections() {
        let c = listing1_c(MpiMode::Full);
        assert!(c.contains("haloupdate_begin_u"), "{c}");
        assert!(c.contains("halowait_u"), "{c}");
        assert!(c.contains("/* CORE region */"), "{c}");
        assert!(c.contains("/* REMAINDER regions */"), "{c}");
        let begin = c.find("haloupdate_begin_u").unwrap();
        let core = c.find("/* CORE region */").unwrap();
        let wait = c.find("halowait_u").unwrap();
        let rem = c.find("/* REMAINDER regions */").unwrap();
        assert!(begin < core && core < wait && wait < rem, "{c}");
    }

    #[test]
    fn functions_have_no_time_index() {
        let mut ctx = Context::new();
        let g = Grid::new(&[8, 8], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 2, 2);
        let m = ctx.add_function("m", &g, 2);
        let pde = m.center() * u.dt2() - u.laplace();
        let st = mpix_symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
        let cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "Kernel", 0, false);
        let iet = lower_halo_spots(iet, MpiMode::Basic);
        let c = emit_c(&iet, &ctx);
        assert!(c.contains("m[x + 2][y + 2]"), "{c}");
        // Three buffers for second-order time.
        assert!(c.contains("%(3)"), "{c}");
    }

    #[test]
    fn constants_use_float_suffix() {
        assert_eq!(c_const(-2.0), "-2.0F");
        assert_eq!(c_const(0.5), "0.5F");
        assert_eq!(c_const(1.0), "1.0F");
    }
}
