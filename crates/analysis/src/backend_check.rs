//! Backend equivalence pass: every selectable execution backend must be
//! *bitwise* interchangeable with the bytecode interpreter at the box
//! boundary — the exact seam `mpix_codegen::ClusterKernel` defines.
//!
//! The oracle is the scalar interpreter (`Backend::Bytecode`, strip
//! width 0): the path `bytecode_check::eval_program` re-implements
//! instruction by instruction and that `tests/vector_equivalence.rs`
//! pins against the generated C semantics. Each backend under test
//! compiles the *same* [`CompiledCluster`] through [`create_lowering`]
//! and runs it over a synthetic geometry with deterministic fills; any
//! store whose bits differ from the oracle's is an error. The sweep also
//! covers the interpreter's own lane-vectorized strips (W ∈ {8, 16,
//! 32}) and the cache-blocked loop order, so one pass discharges "the
//! JIT is the interpreter" and "the interpreter agrees with itself on
//! every execution shape" together.
//!
//! The synthetic geometry deliberately uses an odd innermost extent so
//! the JIT's 8-lane strip loop leaves a live scalar tail, and per-axis
//! distinct extents so a transposed stride bug cannot cancel out. It is
//! run twice: once with finite fills, compared strictly bit for bit, and
//! once with hostile fills (±subnormals, ±0, ±Inf, NaN), where any NaN
//! matches any NaN. Both run with subnormals flushed, as every kernel
//! thread does.

use mpix_codegen::bytecode::{CoeffSrc, CompiledCluster, Op};
use mpix_codegen::{create_lowering, Backend, FpEnvGuard, Launch};
use mpix_dmp::regions::BoxNd;
use mpix_trace::Diagnostic;

/// Pass name used in diagnostics.
pub const PASS: &str = "backend";

/// A self-contained launch geometry for one cluster: every stream gets
/// the same padded allocation (uniform halo = the cluster's max offset
/// reach), mirroring the single-rank executor layout.
struct Geometry {
    strides: Vec<Vec<usize>>,
    halos: Vec<usize>,
    resolved: Vec<isize>,
    scalars: Vec<f32>,
    params: Vec<f32>,
    /// Initial padded buffer contents, one per stream.
    init: Vec<Vec<f32>>,
    bx: BoxNd,
}

/// What the synthetic buffers hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fill {
    /// Sign-varying, exactly representable finite values; stores must
    /// match the oracle bit for bit.
    Finite,
    /// Mostly ordinary values seeded with ±subnormals, ±0, ±Inf and NaN;
    /// stores must match bit for bit, except that any NaN matches any
    /// NaN (payloads are not part of the contract).
    Hostile,
}

impl Fill {
    fn value(self, i: usize, s: usize, len: usize) -> f32 {
        match self {
            // The same recipe as `bytecode_check`'s fusion spot check.
            Fill::Finite => (((i * 31 + s * 17 + 7) % 97) as f32) * 0.0625 - 3.0,
            Fill::Hostile => {
                // One NaN, +Inf and −Inf per stream.
                if i == (s * 7) % len {
                    return f32::NAN;
                }
                if i == (s * 7 + 3) % len {
                    return f32::INFINITY;
                }
                if i == (s * 7 + 5) % len {
                    return f32::NEG_INFINITY;
                }
                let tiny = f32::from_bits(1);
                match i.wrapping_mul(2654435761).wrapping_add(s * 97) % 13 {
                    0 => tiny,
                    1 => -tiny * 300.0,
                    2 => 0.0,
                    3 => -0.0,
                    4 => f32::MIN_POSITIVE,
                    5 => -1.5 * f32::MIN_POSITIVE,
                    h => (h as f32 - 8.0) / 8.0,
                }
            }
        }
    }

    /// Whether `got` matches the oracle's `want` under this fill's rule.
    fn same(self, want: f32, got: f32) -> bool {
        want.to_bits() == got.to_bits() || (self == Fill::Hostile && want.is_nan() && got.is_nan())
    }

    fn name(self) -> &'static str {
        match self {
            Fill::Finite => "finite",
            Fill::Hostile => "hostile",
        }
    }
}

fn build_geometry(cc: &CompiledCluster, num_params: usize, fill: Fill) -> Geometry {
    let nd = cc
        .offsets
        .iter()
        .map(|(_, d)| d.len())
        .max()
        .unwrap_or(1)
        .max(1);
    let halo = cc
        .offsets
        .iter()
        .flat_map(|(_, d)| d.iter().map(|x| x.unsigned_abs() as usize))
        .max()
        .unwrap_or(0);
    // Odd innermost extent (scalar tail stays live at W = 8); distinct
    // outer extents (stride transpositions cannot alias).
    let extents: Vec<usize> = (0..nd)
        .map(|d| if d == nd - 1 { 7 } else { 3 + d })
        .collect();
    let padded: Vec<usize> = extents.iter().map(|e| e + 2 * halo).collect();
    let mut stride = vec![0usize; nd];
    stride[nd - 1] = 1;
    for d in (0..nd - 1).rev() {
        stride[d] = stride[d + 1] * padded[d + 1];
    }
    let len: usize = padded.iter().product();

    let resolved: Vec<isize> = cc
        .offsets
        .iter()
        .map(|(_, deltas)| {
            deltas
                .iter()
                .zip(&stride)
                .map(|(&d, &s)| d as isize * s as isize)
                .sum()
        })
        .collect();

    let init: Vec<Vec<f32>> = (0..cc.streams.len())
        .map(|s| (0..len).map(|i| fill.value(i, s, len)).collect())
        .collect();
    let scalars: Vec<f32> = (0..cc.scalars.len())
        .map(|j| 0.5 + 0.25 * (j + 1) as f32)
        .collect();
    let params: Vec<f32> = (0..num_params)
        .map(|k| 0.375 * (k + 1) as f32 + 0.5)
        .collect();

    Geometry {
        strides: vec![stride; cc.streams.len()],
        halos: vec![halo; cc.streams.len()],
        resolved,
        scalars,
        params,
        init,
        bx: extents.iter().map(|&e| 0..e).collect(),
    }
}

/// True when the program indexes a parameter slot `>= num_params` — the
/// slot-validity pass owns that error; running would index out of
/// bounds, so equivalence is skipped for such (already-flagged) programs.
fn has_invalid_params(cc: &CompiledCluster, num_params: usize) -> bool {
    cc.ops.iter().any(|op| match *op {
        Op::Param(k) => k as usize >= num_params,
        Op::LoadMul { coeff, .. } | Op::LoadMulAdd { coeff, .. } => match coeff {
            CoeffSrc::Param(k) => k as usize >= num_params,
            _ => false,
        },
        _ => false,
    })
}

/// Run `cc` through `backend`'s compiled kernel over the geometry and
/// return the final buffers.
fn run_backend(
    cc: &CompiledCluster,
    geo: &Geometry,
    backend: Backend,
    block: usize,
    vw: usize,
) -> Result<Vec<Vec<f32>>, String> {
    let lowering = create_lowering(backend).map_err(|e| e.to_string())?;
    let kernel = lowering.compile(cc);
    let mut bufs = geo.init.clone();
    let launch = Launch {
        cc,
        strides: &geo.strides,
        halos: &geo.halos,
        resolved: &geo.resolved,
        scalars: &geo.scalars,
        params: &geo.params,
        block,
        vw,
    };
    let mut slices: Vec<&mut [f32]> = bufs.iter_mut().map(|v| v.as_mut_slice()).collect();
    kernel.bind(&launch).exec_box(&geo.bx, &mut slices);
    Ok(bufs)
}

/// Compare one backend run against the oracle buffers, bitwise (NaN
/// matching NaN under [`Fill::Hostile`]).
fn compare(
    ci: usize,
    cc: &CompiledCluster,
    fill: Fill,
    oracle: &[Vec<f32>],
    got: &[Vec<f32>],
    what: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for (s, (a, b)) in oracle.iter().zip(got).enumerate() {
        let mismatches = a
            .iter()
            .zip(b)
            .filter(|(x, y)| !fill.same(**x, **y))
            .count();
        if mismatches > 0 {
            let (idx, (x, y)) = a
                .iter()
                .zip(b)
                .enumerate()
                .find(|(_, (x, y))| !fill.same(**x, **y))
                .unwrap();
            diags.push(Diagnostic::error(
                PASS,
                format!("cluster {ci} / stream {s} / {what}"),
                format!(
                    "{mismatches} store(s) differ bitwise from the scalar bytecode \
                     oracle (first at linear index {idx}: oracle {x:?} ({:#010x}) vs \
                     backend {y:?} ({:#010x})); backends must be bitwise \
                     interchangeable — written streams: {:?}",
                    x.to_bits(),
                    y.to_bits(),
                    cc.written
                ),
            ));
        }
    }
}

/// Prove every backend in `backends` produces stores bitwise identical
/// to the scalar bytecode interpreter on this cluster, from finite and
/// from hostile fills. For the interpreter itself the sweep covers the
/// vectorized strip widths and cache blocking (self-consistency across
/// execution shapes); native backends are additionally run blocked,
/// since the JIT sees tile-sized boxes through the same entry point.
pub fn check_backend_equivalence(
    ci: usize,
    cc: &CompiledCluster,
    num_params: usize,
    backends: &[Backend],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if cc.ops.is_empty() || cc.streams.is_empty() || !cc.written.iter().any(|&w| w) {
        return diags; // nothing stored → nothing to compare
    }
    if has_invalid_params(cc, num_params) {
        return diags; // bytecode_check flags this; running would be UB
    }
    let _fpenv = FpEnvGuard::enter();
    for fill in [Fill::Finite, Fill::Hostile] {
        let geo = build_geometry(cc, num_params, fill);
        let oracle = match run_backend(cc, &geo, Backend::Bytecode, 0, 0) {
            Ok(b) => b,
            Err(e) => {
                diags.push(Diagnostic::error(
                    PASS,
                    format!("cluster {ci}"),
                    format!("bytecode oracle failed to run: {e}"),
                ));
                return diags;
            }
        };

        for &backend in backends {
            // (block, vw) shapes per backend: the interpreter sweeps its
            // strip widths; other backends ignore vw, so sweep blocking.
            let shapes: &[(usize, usize)] = if backend == Backend::Bytecode {
                &[(0, 8), (0, 16), (0, 32), (2, 8)]
            } else {
                &[(0, 0), (2, 0)]
            };
            for &(block, vw) in shapes {
                match run_backend(cc, &geo, backend, block, vw) {
                    Ok(got) => {
                        let what = format!(
                            "backend {backend} (block={block}, vw={vw}, {} fill)",
                            fill.name()
                        );
                        compare(ci, cc, fill, &oracle, &got, &what, &mut diags);
                    }
                    Err(e) => {
                        // Reported once, from the first fill.
                        if fill == Fill::Finite {
                            diags.push(Diagnostic::warning(
                                PASS,
                                format!("cluster {ci}"),
                                format!(
                                    "backend {backend} unavailable, equivalence not checked: {e}"
                                ),
                            ));
                        }
                        break;
                    }
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_codegen::available_backends;
    use mpix_codegen::bytecode::{compile_cluster, fuse_cluster};
    use mpix_ir::cluster::clusterize;
    use mpix_ir::lowering::lower_equations;
    use mpix_symbolic::{Context, Eq, Grid};

    fn star_cluster() -> CompiledCluster {
        let mut ctx = Context::new();
        let g = Grid::new(&[12, 12, 12], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 4, 2);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
        fuse_cluster(compile_cluster(&cl[0]))
    }

    #[test]
    fn every_available_backend_matches_the_oracle() {
        let cc = star_cluster();
        let diags = check_backend_equivalence(0, &cc, 0, &available_backends());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupted_program_is_caught_when_backends_diverge() {
        // Self-check of the comparator: perturb the oracle manually and
        // make sure `compare` reports a bitwise mismatch.
        let cc = star_cluster();
        let geo = build_geometry(&cc, 0, Fill::Finite);
        let oracle = run_backend(&cc, &geo, Backend::Bytecode, 0, 0).unwrap();
        let mut got = oracle.clone();
        let s = cc.written.iter().position(|&w| w).unwrap();
        let mid = got[s].len() / 2;
        got[s][mid] += 1.0;
        let mut diags = Vec::new();
        compare(0, &cc, Fill::Finite, &oracle, &got, "perturbed", &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].explanation.contains("differ bitwise"), "{diags:?}");
    }

    #[test]
    fn hostile_fill_seeds_every_special_class() {
        let cc = star_cluster();
        let geo = build_geometry(&cc, 0, Fill::Hostile);
        for (s, buf) in geo.init.iter().enumerate() {
            let has = |p: fn(f32) -> bool| buf.iter().any(|&v| p(v));
            assert!(has(|v| v.is_nan()), "stream {s}: NaN");
            assert!(has(|v| v == f32::INFINITY), "stream {s}: +Inf");
            assert!(has(|v| v == f32::NEG_INFINITY), "stream {s}: -Inf");
            assert!(
                has(|v| v.is_subnormal() && v > 0.0),
                "stream {s}: +subnormal"
            );
            assert!(
                has(|v| v.is_subnormal() && v < 0.0),
                "stream {s}: -subnormal"
            );
            assert!(has(|v| v.to_bits() == 0), "stream {s}: +0");
            assert!(has(|v| v.to_bits() == 0x8000_0000), "stream {s}: -0");
        }
    }

    #[test]
    fn only_the_hostile_fill_forgives_nan_payloads() {
        let cc = star_cluster();
        let s = cc.written.iter().position(|&w| w).unwrap();
        let geo = build_geometry(&cc, 0, Fill::Hostile);
        let oracle = run_backend(&cc, &geo, Backend::Bytecode, 0, 0).unwrap();
        let nan = oracle[s].iter().position(|v| v.is_nan()).unwrap();
        let mut got = oracle.clone();
        got[s][nan] = f32::from_bits(oracle[s][nan].to_bits() ^ 1);
        for (fill, caught) in [(Fill::Hostile, 0), (Fill::Finite, 1)] {
            let mut diags = Vec::new();
            compare(0, &cc, fill, &oracle, &got, "payload", &mut diags);
            assert_eq!(diags.len(), caught, "{fill:?}: {diags:?}");
        }
        // A sign-of-zero flip is a real difference under either rule.
        let zero = oracle[s].iter().position(|&v| v == 0.0).unwrap();
        let mut got = oracle.clone();
        got[s][zero] = -oracle[s][zero];
        let mut diags = Vec::new();
        compare(
            0,
            &cc,
            Fill::Hostile,
            &oracle,
            &got,
            "signed zero",
            &mut diags,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn geometry_has_unit_innermost_stride_and_odd_extent() {
        let cc = star_cluster();
        let geo = build_geometry(&cc, 0, Fill::Finite);
        for s in &geo.strides {
            assert_eq!(*s.last().unwrap(), 1);
        }
        assert_eq!(geo.bx.last().unwrap().len() % 2, 1, "tail must stay live");
        // Offsets resolve symmetrically: the star has matched ± taps.
        assert!(geo.resolved.iter().any(|&r| r > 0));
        assert!(geo.resolved.iter().any(|&r| r < 0));
    }
}
