//! Analytic verification of the acoustic propagator: standing-wave
//! eigenmodes of the wave equation on a box with homogeneous Dirichlet
//! boundaries.
//!
//! The mode `u(x, t) = Π_d sin(k_d x_d) · cos(ω t)` with `ω = c·|k|`
//! solves `u_tt = c² ∇²u` exactly. With grid points at `x_i = (i+1)h`,
//! `h = 1/(n+1)` and `k_d = π`, the mode vanishes exactly at the ghost
//! points the executor reads as zero. For SDO 2 this boundary treatment
//! is exactly consistent; wider stencils also read the *second* ghost
//! point, where the mode's odd extension is nonzero, so a boundary error
//! of size O(h) enters and propagates inward at wave speed `c`. The
//! error is therefore measured on the interior points the boundary
//! cannot have contaminated after `nt` steps, where pure dispersion
//! error remains — and must shrink with the spatial order.

use mpix_core::{ApplyOptions, Operator, Workspace};
use mpix_symbolic::{Context, Grid};

/// Build a bare acoustic operator (`m u_tt = ∇²u`, no damping term) on an
/// `n`-per-dim interior grid with spacing `1/(n+1)`.
pub fn standing_wave_operator(n: usize, nd: usize, so: u32) -> (Operator, f64) {
    let h = 1.0 / (n + 1) as f64;
    let shape = vec![n; nd];
    let extent: Vec<f64> = shape.iter().map(|&s| (s - 1) as f64 * h).collect();
    let grid = Grid::new(&shape, &extent);
    let mut ctx = Context::new();
    let u = ctx.add_time_function("u", &grid, so, 2);
    let m = ctx.add_function("m", &grid, so);
    let pde = m.center() * u.dt2() - u.laplace();
    let st = mpix_symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
    (Operator::build(ctx, grid, vec![st]).unwrap(), h)
}

/// Evaluate the fundamental mode at interior grid point `idx`.
fn mode_at(idx: &[usize], h: f64) -> f64 {
    idx.iter()
        .map(|&i| (std::f64::consts::PI * (i + 1) as f64 * h).sin())
        .product()
}

/// Run the standing-wave problem for `nt` steps on `ranks` simulated
/// ranks; return the max-norm error against the analytic solution.
pub fn standing_wave_error(n: usize, nd: usize, so: u32, nt: usize, ranks: usize, c: f64) -> f64 {
    let (op, h) = standing_wave_operator(n, nd, so);
    let omega = c * std::f64::consts::PI * (nd as f64).sqrt();
    let dt = 0.2 * h / (c * (nd as f64).sqrt());
    let m_val = 1.0 / (c * c);
    let shape = vec![n; nd];
    let opts = ApplyOptions::default()
        .with_nt(nt as i64)
        .with_dt(dt)
        .with_ranks(ranks)
        .with_label("standing-wave");

    let seed = {
        let shape = shape.clone();
        move |ws: &mut Workspace| {
            let full: Vec<std::ops::Range<usize>> = shape.iter().map(|&s| 0..s).collect();
            ws.field_data_mut("m", 0)
                .fill_global_slice(&full, m_val as f32);
            // u(0) and u(-dt): exact time history of the mode.
            for (time, phase) in [(0, 1.0), (-1, (omega * dt).cos())] {
                let mut idx = vec![0usize; shape.len()];
                let last = shape.len() - 1;
                ws.field_data_mut("u", time)
                    .for_each_global_row_mut(&full, |start, row| {
                        idx.copy_from_slice(start);
                        for (k, v) in row.iter_mut().enumerate() {
                            idx[last] = start[last] + k;
                            *v = (mode_at(&idx, h) * phase) as f32;
                        }
                    });
            }
        }
    };
    let got = op.run(&opts, seed, |ws| ws.gather("u")).results;
    let g = &got[0];
    let t_final = nt as f64 * dt;
    let decay = (omega * t_final).cos();
    // Contamination depth: stencil radius + distance the boundary error
    // travels in nt steps (CFL 0.2 -> 0.2 points per step).
    let margin = (so as usize) / 2 + (0.2 * nt as f64).ceil() as usize + 1;
    let total: usize = shape.iter().product();
    let mut idx = vec![0usize; nd];
    let mut max_err = 0.0f64;
    let mut measured = 0usize;
    for lin in 0..total {
        let mut rem = lin;
        for d in (0..nd).rev() {
            idx[d] = rem % shape[d];
            rem /= shape[d];
        }
        if idx.iter().any(|&i| i < margin || i >= n - margin) {
            continue;
        }
        measured += 1;
        let exact = mode_at(&idx, h) * decay;
        max_err = max_err.max((g[lin] as f64 - exact).abs());
    }
    assert!(measured > 0, "margin {margin} leaves no interior on n={n}");
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standing_wave_matches_analytic_2d() {
        let err = standing_wave_error(31, 2, 4, 24, 1, 1.5);
        assert!(err < 2e-3, "2-D standing wave error {err}");
    }

    #[test]
    fn standing_wave_matches_analytic_3d_distributed() {
        let err = standing_wave_error(17, 3, 4, 12, 8, 1.5);
        assert!(err < 5e-3, "3-D distributed standing wave error {err}");
    }

    #[test]
    fn interior_error_shrinks_with_spatial_order() {
        // Same grid and dt: interior dispersion error must not grow with
        // SDO (it collapses to time-integration error once spatial terms
        // are resolved).
        let e2 = standing_wave_error(31, 2, 2, 24, 1, 1.5);
        let e8 = standing_wave_error(31, 2, 8, 24, 1, 1.5);
        assert!(
            e8 <= e2 * 1.1,
            "so-8 interior error should not exceed so-2: {e8} vs {e2}"
        );
    }

    #[test]
    fn refinement_convergence_second_order() {
        // Halve h (and dt with it): so-2 error should drop ~4x; require 2x.
        let coarse = standing_wave_error(15, 2, 2, 12, 1, 1.5);
        let fine = standing_wave_error(31, 2, 2, 24, 1, 1.5);
        assert!(
            fine < coarse / 2.0,
            "no 2nd-order convergence: coarse {coarse}, fine {fine}"
        );
    }
}
