//! Sparse, off-the-grid points (paper §III c, Fig. 3): seismic sources
//! and receivers that do not align with the computational grid.
//!
//! Each point has physical coordinates; its multilinear interpolation
//! support spans up to `2^nd` grid nodes. A point is *replicated* onto
//! every rank whose owned sub-domain intersects that support — points at
//! shared boundaries belong to all involved ranks (Fig. 3: point C is
//! shared by four ranks, A by one). Injection writes each grid node on
//! exactly its owning rank, so replicated execution never double-writes;
//! interpolation sums per-rank partial contributions and combines them on
//! the point's primary owner.

use mpix_comm::{CartComm, Tag};

use crate::array::DistArray;
use crate::decomp::Decomposition;

/// A set of sparse points with physical coordinates.
#[derive(Clone, Debug)]
pub struct SparsePoints {
    /// Physical coordinates, one `Vec<f64>` (length = ndim) per point.
    pub coords: Vec<Vec<f64>>,
    /// Grid spacing per dimension (physical units per grid step).
    pub spacing: Vec<f64>,
}

/// The grid-node support of one point: base node index and interpolation
/// weights for the surrounding `2^nd` nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Support {
    /// Lowest-corner global grid index of the interpolation cell.
    pub base: Vec<usize>,
    /// Fractional position inside the cell, per dimension, in `[0, 1)`.
    pub frac: Vec<f64>,
}

impl SparsePoints {
    pub fn new(coords: Vec<Vec<f64>>, spacing: Vec<f64>) -> SparsePoints {
        for c in &coords {
            assert_eq!(c.len(), spacing.len(), "coordinate dimensionality mismatch");
        }
        SparsePoints { coords, spacing }
    }

    pub fn len(&self) -> usize {
        self.coords.len()
    }
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
    pub fn ndim(&self) -> usize {
        self.spacing.len()
    }

    /// Interpolation support of point `p`, clamped into the global grid.
    pub fn support(&self, p: usize, global_shape: &[usize]) -> Support {
        let nd = self.ndim();
        let mut base = Vec::with_capacity(nd);
        let mut frac = Vec::with_capacity(nd);
        for d in 0..nd {
            let x = self.coords[p][d] / self.spacing[d];
            let mut b = x.floor() as i64;
            let max_base = global_shape[d] as i64 - 2;
            b = b.clamp(0, max_base.max(0));
            base.push(b as usize);
            frac.push((x - b as f64).clamp(0.0, 1.0));
        }
        Support { base, frac }
    }

    /// The ranks (as Cartesian coordinate boxes) whose ownership
    /// intersects point `p`'s support — the replication set of Fig. 3.
    pub fn owner_coords(&self, p: usize, decomp: &Decomposition) -> Vec<Vec<usize>> {
        let sup = self.support(p, decomp.global_shape());
        let nd = self.ndim();
        // Per-dim process-column ranges covering [base, base+1].
        let col_ranges: Vec<std::ops::Range<usize>> = (0..nd)
            .map(|d| {
                let lo = sup.base[d];
                let hi = (sup.base[d] + 2).min(decomp.global_shape()[d]);
                decomp.owners_of_range(d, &(lo..hi))
            })
            .collect();
        let mut out = Vec::new();
        let mut idx: Vec<usize> = col_ranges.iter().map(|r| r.start).collect();
        loop {
            out.push(idx.clone());
            let mut d = nd;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < col_ranges[d].end {
                    break;
                }
                idx[d] = col_ranges[d].start;
            }
        }
    }

    /// Is point `p` replicated on the rank with Cartesian `coords`?
    pub fn is_owner(&self, p: usize, decomp: &Decomposition, coords: &[usize]) -> bool {
        self.owner_coords(p, decomp).iter().any(|c| c == coords)
    }

    /// The *primary* owner (lowest coordinate tuple) — the rank that
    /// combines interpolation partials.
    pub fn primary_owner(&self, p: usize, decomp: &Decomposition) -> Vec<usize> {
        self.owner_coords(p, decomp)
            .into_iter()
            .min()
            .expect("every point has at least one owner")
    }

    /// Multilinear corner weights of point `p`: `(corner offsets, weight)`
    /// for each of the `2^nd` surrounding nodes.
    pub fn corner_weights(&self, p: usize, global_shape: &[usize]) -> Vec<(Vec<usize>, f64)> {
        let sup = self.support(p, global_shape);
        let nd = self.ndim();
        let mut out = Vec::with_capacity(1 << nd);
        for corner in 0..(1usize << nd) {
            let mut idx = Vec::with_capacity(nd);
            let mut w = 1.0f64;
            for d in 0..nd {
                let hi = (corner >> d) & 1 == 1;
                let node = sup.base[d] + usize::from(hi);
                if node >= global_shape[d] {
                    w = 0.0;
                }
                idx.push(node.min(global_shape[d] - 1));
                w *= if hi { sup.frac[d] } else { 1.0 - sup.frac[d] };
            }
            if w != 0.0 {
                out.push((idx, w));
            }
        }
        out
    }

    /// Inject `value * weight` into the grid around point `p`. Each node
    /// is written only by its owner, so calling this on every replicated
    /// rank performs the global injection exactly once per node.
    pub fn inject(&self, p: usize, value: f64, arr: &mut DistArray) {
        let weights = self.corner_weights(p, arr.decomp().global_shape());
        for (node, w) in weights {
            if let Some(cur) = arr.get_global(&node) {
                arr.set_global(&node, cur + (value * w) as f32);
            }
        }
    }

    /// Interpolate the grid value at point `p`, combining partial sums
    /// across the replication set onto the primary owner. Returns
    /// `Some(value)` on the primary owner, `None` elsewhere.
    ///
    /// All replicated ranks must call this collectively.
    pub fn interpolate(&self, p: usize, arr: &DistArray, cart: &CartComm, tag: Tag) -> Option<f64> {
        let decomp = arr.decomp();
        let owners = self.owner_coords(p, decomp);
        let me = arr.coords().to_vec();
        if !owners.contains(&me) {
            return None;
        }
        let weights = self.corner_weights(p, decomp.global_shape());
        let partial: f64 = weights
            .iter()
            .filter_map(|(node, w)| arr.get_global(node).map(|v| v as f64 * w))
            .sum();
        let primary = owners.iter().min().unwrap().clone();
        let primary_rank = CartComm::rank_of(cart.dims(), &primary);
        if me == primary {
            let mut total = partial;
            for o in &owners {
                if *o != me {
                    let r = CartComm::rank_of(cart.dims(), o);
                    let v = cart.comm().recv_f32(r, tag);
                    total += v[0] as f64;
                }
            }
            Some(total)
        } else {
            cart.comm().send_f32(primary_rank, tag, &[partial as f32]);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn decomp() -> Decomposition {
        // 8x8 grid over a 2x2 process grid: ownership boundary at index 4.
        Decomposition::new(&[8, 8], &[2, 2])
    }

    fn points(coords: Vec<Vec<f64>>) -> SparsePoints {
        SparsePoints::new(coords, vec![1.0, 1.0])
    }

    #[test]
    fn interior_point_has_single_owner() {
        // Fig. 3 point A: interior of rank (0,0).
        let sp = points(vec![vec![1.4, 1.6]]);
        let owners = sp.owner_coords(0, &decomp());
        assert_eq!(owners, vec![vec![0, 0]]);
    }

    #[test]
    fn boundary_point_shared_by_two_ranks() {
        // Fig. 3 points B/D: support [3,4] crosses the column boundary.
        let sp = points(vec![vec![3.5, 1.0]]);
        let owners = sp.owner_coords(0, &decomp());
        assert_eq!(owners, vec![vec![0, 0], vec![1, 0]]);
    }

    #[test]
    fn corner_point_shared_by_four_ranks() {
        // Fig. 3 point C: both dims cross -> all four ranks.
        let sp = points(vec![vec![3.5, 3.5]]);
        let owners = sp.owner_coords(0, &decomp());
        assert_eq!(owners.len(), 4);
        assert_eq!(sp.primary_owner(0, &decomp()), vec![0, 0]);
    }

    #[test]
    fn corner_weights_partition_unity() {
        let sp = points(vec![vec![2.3, 5.7]]);
        let w = sp.corner_weights(0, &[8, 8]);
        let total: f64 = w.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn on_node_point_has_unit_weight() {
        let sp = points(vec![vec![3.0, 5.0]]);
        let w = sp.corner_weights(0, &[8, 8]);
        // frac = 0: only the base corner has nonzero weight.
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, vec![3, 5]);
        assert!((w[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_outside_grid_clamps() {
        let sp = points(vec![vec![-0.5, 9.5]]);
        let sup = sp.support(0, &[8, 8]);
        assert_eq!(sup.base, vec![0, 6]);
    }

    #[test]
    fn inject_writes_each_node_once_across_replicas() {
        let dc = Arc::new(decomp());
        let sp = points(vec![vec![3.5, 3.5]]); // shared by 4 ranks
                                               // Simulate all four ranks injecting; sum of all shards must equal
                                               // the injected value (weights partition unity).
        let mut total = 0.0f64;
        for ci in 0..2 {
            for cj in 0..2 {
                let mut arr = DistArray::new(Arc::clone(&dc), &[ci, cj], 2);
                if sp.is_owner(0, &dc, &[ci, cj]) {
                    sp.inject(0, 10.0, &mut arr);
                }
                total += arr.raw().iter().map(|&v| v as f64).sum::<f64>();
            }
        }
        assert!((total - 10.0).abs() < 1e-5, "total {total}");
    }

    #[test]
    fn interpolate_across_ranks_matches_serial() {
        use mpix_comm::Universe;
        let got = Universe::run(4, |comm| {
            let dc = Arc::new(decomp());
            let cart = CartComm::new(comm, &[2, 2]);
            let coords = CartComm::coords_of(&[2, 2], cart.rank()).to_vec();
            let mut arr = DistArray::new(Arc::clone(&dc), &coords, 2);
            // Global field: f(i,j) = i + 10*j (linear -> interpolation exact).
            for i in 0..8 {
                for j in 0..8 {
                    arr.set_global(&[i, j], (i + 10 * j) as f32);
                }
            }
            let sp = points(vec![vec![3.5, 3.5]]);
            sp.interpolate(0, &arr, &cart, 100)
        });
        // Exactly one rank (primary owner, rank 0) returns the value.
        let vals: Vec<f64> = got.into_iter().flatten().collect();
        assert_eq!(vals.len(), 1);
        assert!((vals[0] - (3.5 + 35.0)).abs() < 1e-4, "{}", vals[0]);
    }
}
