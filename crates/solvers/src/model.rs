//! Physical model setup: velocity models, the absorbing-boundary damping
//! layer, and stable time steps.
//!
//! The paper's problem setup (§IV-C) surrounds each domain with a
//! 40-point absorbing boundary condition (ABC) layer; we mirror that
//! with a configurable `nbl` and the standard quadratic damping profile.

use mpix_core::Workspace;
use mpix_symbolic::Grid;

/// A model specification: interior shape, boundary layer, velocities.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Interior (physical) shape, per dimension.
    pub shape: Vec<usize>,
    /// Absorbing boundary layer width (points per side).
    pub nbl: usize,
    /// P-wave velocity (km/s) — constant background.
    pub vp: f64,
    /// S-wave velocity (km/s) for elastic models.
    pub vs: f64,
    /// Density (g/cm³).
    pub rho: f64,
    /// Grid spacing (km per point).
    pub spacing: f64,
}

impl ModelSpec {
    pub fn new(shape: &[usize]) -> ModelSpec {
        ModelSpec {
            shape: shape.to_vec(),
            nbl: 4,
            vp: 1.5,
            vs: 0.75,
            rho: 1.0,
            spacing: 0.01,
        }
    }

    pub fn with_nbl(mut self, nbl: usize) -> Self {
        self.nbl = nbl;
        self
    }
    pub fn with_vp(mut self, vp: f64) -> Self {
        self.vp = vp;
        self
    }

    /// The padded computational shape (interior + 2·nbl per side), as in
    /// the paper: "domains 80 points bigger per side".
    pub fn padded_shape(&self) -> Vec<usize> {
        self.shape.iter().map(|&s| s + 2 * self.nbl).collect()
    }

    /// The computational grid over the padded domain.
    pub fn grid(&self) -> Grid {
        let shape = self.padded_shape();
        let extent: Vec<f64> = shape
            .iter()
            .map(|&s| (s - 1) as f64 * self.spacing)
            .collect();
        Grid::new(&shape, &extent)
    }

    /// Squared slowness `m = 1/vp²`.
    pub fn m(&self) -> f64 {
        1.0 / (self.vp * self.vp)
    }

    /// A stable time step via the CFL condition for 2nd-order-in-time
    /// explicit schemes: `dt = cfl · h / (vp · √ndim)`.
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        cfl * self.spacing / (self.vp * (self.shape.len() as f64).sqrt())
    }

    /// Damping value at padded global index `idx` (quadratic ramp inside
    /// the boundary layer, zero in the interior): the largest of the
    /// per-axis terms [`ModelSpec::damping_term`], folded in axis order
    /// from 0.
    pub fn damping_at(&self, idx: &[usize]) -> f64 {
        idx.iter()
            .enumerate()
            .fold(0.0, |d, (dim, &i)| d.max(self.damping_term(dim, i)))
    }

    /// The damping ramp along one axis at padded index `i`: zero in the
    /// interior and everywhere when there is no boundary layer.
    fn damping_term(&self, dim: usize, i: usize) -> f64 {
        if self.nbl == 0 {
            return 0.0;
        }
        let n = self.shape[dim] + 2 * self.nbl;
        let lo = self.nbl as f64;
        let hi = (n - 1 - self.nbl) as f64;
        let x = i as f64;
        let dist = if x < lo {
            lo - x
        } else if x > hi {
            x - hi
        } else {
            0.0
        };
        let r = dist / self.nbl as f64;
        self.damp_coeff() * r * r
    }

    /// Peak damping coefficient: tuned so the layer absorbs without
    /// destabilizing the explicit update.
    fn damp_coeff(&self) -> f64 {
        // ~ log(1/R) * 3 vp / (2 L), the classic sponge estimate.
        let l = (self.nbl.max(1)) as f64 * self.spacing;
        3.0 * self.vp * (1000.0f64).ln() / (2.0 * l)
    }

    /// Fill a named `Function` field with a constant over the padded
    /// domain.
    pub fn fill_constant(&self, ws: &mut Workspace, name: &str, value: f64) {
        let shape = self.padded_shape();
        let ranges: Vec<std::ops::Range<usize>> = shape.iter().map(|&s| 0..s).collect();
        ws.field_data_mut(name, 0)
            .fill_global_slice(&ranges, value as f32);
    }

    /// Fill the damping field from the ABC profile. The profile is
    /// separable — [`ModelSpec::damping_at`] is a max over per-axis terms
    /// — so each axis's term is computed once, and each owned row takes
    /// the max of its outer axes' terms with the innermost axis's, in
    /// `damping_at`'s axis order: the values are bit-identical to it.
    pub fn fill_damping(&self, ws: &mut Workspace, name: &str) {
        let shape = self.padded_shape();
        let nd = shape.len();
        let profiles: Vec<Vec<f64>> = (0..nd)
            .map(|d| (0..shape[d]).map(|i| self.damping_term(d, i)).collect())
            .collect();
        let ranges: Vec<std::ops::Range<usize>> = shape.iter().map(|&s| 0..s).collect();
        ws.field_data_mut(name, 0)
            .for_each_global_row_mut(&ranges, |start, row| {
                let outer = (0..nd - 1).fold(0.0, |d: f64, a| d.max(profiles[a][start[a]]));
                let inner = &profiles[nd - 1][start[nd - 1]..];
                for (v, &t) in row.iter_mut().zip(inner) {
                    *v = outer.max(t) as f32;
                }
            });
    }

    /// Physical coordinates of the padded-domain centre (source
    /// placement).
    pub fn center_coords(&self) -> Vec<f64> {
        self.padded_shape()
            .iter()
            .map(|&s| (s - 1) as f64 * self.spacing / 2.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_comm::{CartComm, Universe};
    use mpix_symbolic::Context;

    /// Every process grid of `p` ranks over `nd` axes.
    fn topologies(p: usize, nd: usize) -> Vec<Vec<usize>> {
        if nd == 1 {
            return vec![vec![p]];
        }
        (1..=p)
            .filter(|k| p % k == 0)
            .flat_map(|k| {
                topologies(p / k, nd - 1).into_iter().map(move |mut rest| {
                    rest.insert(0, k);
                    rest
                })
            })
            .collect()
    }

    #[test]
    fn fill_damping_is_bit_identical_to_damping_at_on_every_rank() {
        for shape in [vec![9], vec![7, 5], vec![5, 3, 7]] {
            for nbl in [0, 1, 4] {
                let spec = ModelSpec::new(&shape).with_nbl(nbl);
                let padded = spec.padded_shape();
                for p in 1..=4 {
                    for dims in topologies(p, shape.len()) {
                        if dims.iter().zip(&padded).any(|(&r, &n)| r > n) {
                            continue;
                        }
                        let per_rank = Universe::run(p, |comm| {
                            let grid = spec.grid();
                            let mut ctx = Context::new();
                            ctx.add_function("damp", &grid, 4);
                            let mut ws = Workspace::new(&ctx, &grid, CartComm::new(comm, &dims));
                            ws.field_data_mut("damp", 0).raw_mut().fill(-1.0);
                            spec.fill_damping(&mut ws, "damp");
                            let arr = ws.field_data("damp", 0);
                            let all: Vec<std::ops::Range<usize>> =
                                padded.iter().map(|&n| 0..n).collect();
                            let mut owned = 0usize;
                            mpix_dmp::regions::for_each_index(&all, |g| {
                                if let Some(v) = arr.get_global(g) {
                                    let want = spec.damping_at(g) as f32;
                                    assert_eq!(
                                        v.to_bits(),
                                        want.to_bits(),
                                        "{shape:?} nbl {nbl} {dims:?} at {g:?}: {v} vs {want}"
                                    );
                                    owned += 1;
                                }
                            });
                            // Every halo cell still holds the sentinel.
                            let kept = arr.raw().iter().filter(|&&v| v == -1.0).count();
                            assert_eq!(kept, arr.raw().len() - owned, "halo cells written");
                            owned
                        });
                        let total: usize = padded.iter().product();
                        assert_eq!(per_rank.iter().sum::<usize>(), total, "{dims:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn padded_shape_adds_layers_both_sides() {
        let m = ModelSpec::new(&[16, 16, 16]).with_nbl(4);
        assert_eq!(m.padded_shape(), vec![24, 24, 24]);
    }

    #[test]
    fn damping_zero_in_interior_positive_in_layer() {
        let m = ModelSpec::new(&[16, 16]).with_nbl(4);
        assert_eq!(m.damping_at(&[12, 12]), 0.0);
        assert!(m.damping_at(&[0, 12]) > 0.0);
        assert!(m.damping_at(&[0, 0]) >= m.damping_at(&[2, 12]));
        // Monotone toward the edge.
        assert!(m.damping_at(&[0, 12]) > m.damping_at(&[1, 12]));
    }

    #[test]
    fn stable_dt_scales_with_velocity() {
        let slow = ModelSpec::new(&[8, 8]).with_vp(1.0);
        let fast = ModelSpec::new(&[8, 8]).with_vp(4.0);
        assert!(slow.stable_dt(0.4) > fast.stable_dt(0.4));
    }

    #[test]
    fn no_boundary_layer_means_no_damping() {
        let m = ModelSpec::new(&[8, 8]).with_nbl(0);
        assert_eq!(m.damping_at(&[0, 0]), 0.0);
        assert_eq!(m.padded_shape(), vec![8, 8]);
    }
}
