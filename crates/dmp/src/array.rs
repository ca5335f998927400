//! `DistArray`: the distributed NumPy-array analogue.
//!
//! The data is physically distributed but logically centralized (§III b):
//! users index and slice in *global* coordinates; robust global-to-local
//! conversion directs each read/write to the owning rank(s). Rank-local
//! storage is padded with `halo` ghost points per side.

use std::ops::Range;
use std::sync::Arc;

use mpix_comm::Comm;

use crate::decomp::Decomposition;
use crate::regions::{box_len, for_each_index, region_box, BoxNd, Region, MAX_ND};

/// A rank-local shard of a globally-indexed dense `f32` array.
#[derive(Clone, Debug)]
pub struct DistArray {
    decomp: Arc<Decomposition>,
    coords: Vec<usize>,
    halo: usize,
    local_shape: Vec<usize>,
    padded_shape: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f32>,
}

impl DistArray {
    /// Allocate this rank's shard (zero-initialized, like `u.data` on
    /// first access in Devito).
    pub fn new(decomp: Arc<Decomposition>, coords: &[usize], halo: usize) -> DistArray {
        assert_eq!(coords.len(), decomp.ndim());
        let local_shape = decomp.local_shape(coords);
        let padded_shape: Vec<usize> = local_shape.iter().map(|&n| n + 2 * halo).collect();
        let mut strides = vec![1usize; padded_shape.len()];
        for d in (0..padded_shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * padded_shape[d + 1];
        }
        let len = padded_shape.iter().product();
        DistArray {
            decomp,
            coords: coords.to_vec(),
            halo,
            local_shape,
            padded_shape,
            strides,
            data: vec![0.0; len],
        }
    }

    pub fn decomp(&self) -> &Decomposition {
        &self.decomp
    }
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }
    pub fn halo(&self) -> usize {
        self.halo
    }
    /// Owned (unpadded) local shape.
    pub fn local_shape(&self) -> &[usize] {
        &self.local_shape
    }
    /// Allocated (padded) local shape.
    pub fn padded_shape(&self) -> &[usize] {
        &self.padded_shape
    }
    /// Row-major strides of the padded allocation.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }
    /// Raw padded storage.
    pub fn raw(&self) -> &[f32] {
        &self.data
    }
    /// Raw padded storage, mutable.
    pub fn raw_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
    /// The backing vector itself — lets the executor temporarily move
    /// buffers out (`std::mem::take`) to bind several fields mutably at
    /// once without aliasing, then move them back.
    pub fn raw_vec_mut(&mut self) -> &mut Vec<f32> {
        &mut self.data
    }

    /// Stable identity of this array for the sanitizer's shadow state:
    /// the address of the backing storage. Survives the executor's
    /// `mem::take` move-out/move-back dance (a `Vec` move keeps its heap
    /// pointer), which is exactly why it is the identity and not `&self`.
    pub fn shadow_id(&self) -> usize {
        self.data.as_ptr() as usize
    }

    /// Linear offset of a padded multi-index.
    #[inline]
    pub fn lin(&self, padded_idx: &[usize]) -> usize {
        padded_idx
            .iter()
            .zip(&self.strides)
            .map(|(&i, &s)| i * s)
            .sum()
    }

    /// Read at padded-local coordinates.
    #[inline]
    pub fn get_padded(&self, idx: &[usize]) -> f32 {
        self.data[self.lin(idx)]
    }

    /// Write at padded-local coordinates.
    #[inline]
    pub fn set_padded(&mut self, idx: &[usize], v: f32) {
        let off = self.lin(idx);
        self.data[off] = v;
    }

    /// Linear offset of an owned-local multi-index.
    #[inline]
    fn local_lin(&self, idx: &[usize]) -> usize {
        idx.iter()
            .zip(&self.strides)
            .map(|(&i, &s)| (i + self.halo) * s)
            .sum()
    }

    /// Linear offset of a global multi-index, or `None` when this rank
    /// does not own it. Ownership and offset come from one pass over the
    /// dimensions, with no allocation: sparse injection calls this for
    /// every interpolation corner of every source on every step.
    #[inline]
    fn global_lin(&self, idx: &[usize]) -> Option<usize> {
        assert_eq!(
            idx.len(),
            self.decomp.ndim(),
            "index dimensionality does not match the array"
        );
        let mut off = 0;
        for (d, (&g, &s)) in idx.iter().zip(&self.strides).enumerate() {
            let owned = self.decomp.owned_range(d, self.coords[d]);
            if !owned.contains(&g) {
                return None;
            }
            off += (g - owned.start + self.halo) * s;
        }
        Some(off)
    }

    /// Read at owned-local coordinates (no halo offset applied by caller).
    pub fn get_local(&self, idx: &[usize]) -> f32 {
        self.data[self.local_lin(idx)]
    }

    /// Write at owned-local coordinates.
    pub fn set_local(&mut self, idx: &[usize], v: f32) {
        let off = self.local_lin(idx);
        self.data[off] = v;
    }

    /// Does this rank own the given global point?
    pub fn owns_global(&self, idx: &[usize]) -> bool {
        self.global_lin(idx).is_some()
    }

    /// Write a single global point; no-op on non-owning ranks.
    pub fn set_global(&mut self, idx: &[usize], v: f32) {
        if let Some(off) = self.global_lin(idx) {
            self.data[off] = v;
        }
    }

    /// Read a single global point; `None` on non-owning ranks.
    pub fn get_global(&self, idx: &[usize]) -> Option<f32> {
        self.global_lin(idx).map(|off| self.data[off])
    }

    /// Visit every row of the global box `ranges` that this rank owns:
    /// `f(start, row)` gets the global index of the row's first point
    /// and the row's owned points along the innermost dimension as one
    /// contiguous slice, in row-major order. Halo cells are never
    /// visited. This is the bulk-write primitive every initialiser goes
    /// through; it performs no heap allocation.
    pub fn for_each_global_row_mut(
        &mut self,
        ranges: &[Range<usize>],
        mut f: impl FnMut(&[usize], &mut [f32]),
    ) {
        let nd = self.decomp.ndim();
        assert_eq!(
            ranges.len(),
            nd,
            "box dimensionality does not match the array"
        );
        assert!(nd <= MAX_ND, "box has more than {MAX_ND} dimensions");
        // The intersection in padded coordinates, and the shift that
        // maps a padded index back to a global one.
        let mut padded: [Range<usize>; MAX_ND] = Default::default();
        let mut shift = [0usize; MAX_ND];
        for d in 0..nd {
            let c = self.coords[d];
            let Some(local) = self.decomp.intersect_local(d, c, &ranges[d]) else {
                return;
            };
            shift[d] = self.decomp.owned_range(d, c).start;
            padded[d] = local.start + self.halo..local.end + self.halo;
        }
        let mut global = [0usize; MAX_ND];
        let (strides, data, halo) = (&self.strides, &mut self.data, self.halo);
        for_each_row(&padded[..nd], strides, |idx, start, len| {
            for d in 0..nd {
                global[d] = idx[d] - halo + shift[d];
            }
            f(&global[..nd], &mut data[start..start + len]);
        });
    }

    /// Fill a global slice with a constant — the distributed equivalent
    /// of `u.data[1:-1, 1:-1] = 1` (Listing 1, line 14). Each rank
    /// converts the global slice to its local intersection and writes
    /// only its share (Listing 2). Requires no communication.
    pub fn fill_global_slice(&mut self, ranges: &[Range<usize>], value: f32) {
        self.for_each_global_row_mut(ranges, |_, row| row.fill(value));
    }

    /// Local intersection of a global box with this rank's ownership, in
    /// owned-local coordinates.
    pub fn local_intersection(&self, ranges: &[Range<usize>]) -> Option<BoxNd> {
        let mut out = Vec::with_capacity(ranges.len());
        for d in 0..ranges.len() {
            out.push(self.decomp.intersect_local(d, self.coords[d], &ranges[d])?);
        }
        Some(out)
    }

    /// Render this rank's owned data as a row-major nested list string —
    /// used to reproduce the per-rank stdout of Listings 2–3.
    pub fn local_view_string(&self) -> String {
        assert_eq!(self.decomp.ndim(), 2, "pretty printing supports 2-D");
        let mut s = String::from("[");
        for i in 0..self.local_shape[0] {
            if i > 0 {
                s.push_str("\n ");
            }
            s.push('[');
            for j in 0..self.local_shape[1] {
                if j > 0 {
                    s.push(' ');
                }
                s.push_str(&format!("{:.2}", self.get_local(&[i, j])));
            }
            s.push(']');
        }
        s.push(']');
        s
    }

    /// Gather the full global array onto every rank (root gathers, then
    /// broadcasts). This is the support behind user-side global reads; it
    /// is deliberately simple — inspection, not a hot path.
    pub fn gather_global(&self, comm: &Comm) -> Vec<f32> {
        let nd = self.decomp.ndim();
        let mut flat = Vec::with_capacity(self.local_shape.iter().product());
        let local_box: BoxNd = self
            .local_shape
            .iter()
            .map(|&n| self.halo..self.halo + n)
            .collect();
        for_each_index(&local_box, |idx| flat.push(self.get_padded(idx)));

        let gathered = comm.gather_f32(0, &flat);
        let global_shape = self.decomp.global_shape().to_vec();
        let total: usize = global_shape.iter().product();
        let assembled = if let Some(parts) = gathered {
            // Root assembles in global coordinates.
            let mut out = vec![0.0f32; total];
            let dims = self.decomp.dims().to_vec();
            for rank in 0..comm.size() {
                let coords = mpix_comm::CartComm::coords_of(&dims, rank);
                let starts: Vec<usize> = (0..nd)
                    .map(|d| self.decomp.owned_range(d, coords[d]).start)
                    .collect();
                let shape = self.decomp.local_shape(&coords);
                let b: BoxNd = shape.iter().map(|&n| 0..n).collect();
                let mut k = 0;
                for_each_index(&b, |idx| {
                    let mut off = 0;
                    for d in 0..nd {
                        off = off * global_shape[d] + (starts[d] + idx[d]);
                    }
                    out[off] = parts[rank][k];
                    k += 1;
                });
            }
            out
        } else {
            vec![0.0f32; total]
        };
        comm.bcast_f32(0, &assembled)
    }

    /// Global L2 norm over owned points (collective).
    pub fn norm2(&self, comm: &Comm) -> f64 {
        let local: f64 = self.owned_fold(0.0, |acc, v| acc + (v as f64) * (v as f64));
        comm.allreduce_f64(local, mpix_comm::comm::ReduceOp::Sum)
            .sqrt()
    }

    /// Global sum over owned points (collective).
    pub fn global_sum(&self, comm: &Comm) -> f64 {
        let local = self.owned_fold(0.0, |acc, v| acc + v as f64);
        comm.allreduce_f64(local, mpix_comm::comm::ReduceOp::Sum)
    }

    /// Global max |v| over owned points (collective).
    pub fn norm_inf(&self, comm: &Comm) -> f64 {
        let local = self.owned_fold(0.0f64, |acc, v| acc.max(v.abs() as f64));
        comm.allreduce_f64(local, mpix_comm::comm::ReduceOp::Max)
    }

    fn owned_fold<T: Copy>(&self, init: T, mut f: impl FnMut(T, f32) -> T) -> T {
        let b: BoxNd = self
            .local_shape
            .iter()
            .map(|&n| self.halo..self.halo + n)
            .collect();
        let mut acc = init;
        for_each_index(&b, |idx| acc = f(acc, self.get_padded(idx)));
        acc
    }

    /// Collective read of a global slice: every rank returns the slice
    /// contents in row-major order. Each rank contributes its owned
    /// intersection; rank 0 assembles and broadcasts.
    pub fn read_global_slice(&self, ranges: &[Range<usize>], comm: &Comm) -> Vec<f32> {
        let nd = self.decomp.ndim();
        assert_eq!(ranges.len(), nd);
        // Payload: [lo..; hi..; values...] per rank (f32-encoded box).
        let payload: Vec<f32> = match self.local_intersection(ranges) {
            Some(local_box) => {
                let halo = self.halo;
                let padded: BoxNd = local_box
                    .iter()
                    .map(|r| r.start + halo..r.end + halo)
                    .collect();
                let mut vals = Vec::with_capacity(2 * nd + box_len(&padded));
                // Global coordinates of the intersection box.
                for d in 0..nd {
                    let owned = self.decomp.owned_range(d, self.coords[d]);
                    vals.push((owned.start + local_box[d].start) as f32);
                }
                for d in 0..nd {
                    let owned = self.decomp.owned_range(d, self.coords[d]);
                    vals.push((owned.start + local_box[d].end) as f32);
                }
                for_each_index(&padded, |idx| vals.push(self.get_padded(idx)));
                vals
            }
            None => Vec::new(),
        };
        let gathered = comm.gather_f32(0, &payload);
        let slice_shape: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let total: usize = slice_shape.iter().product();
        let assembled = if let Some(parts) = gathered {
            let mut out = vec![0.0f32; total];
            for part in parts {
                if part.is_empty() {
                    continue;
                }
                let lo: Vec<usize> = (0..nd).map(|d| part[d] as usize).collect();
                let hi: Vec<usize> = (0..nd).map(|d| part[nd + d] as usize).collect();
                let b: BoxNd = (0..nd).map(|d| lo[d]..hi[d]).collect();
                let mut k = 2 * nd;
                for_each_index(&b, |gidx| {
                    let mut off = 0usize;
                    for d in 0..nd {
                        off = off * slice_shape[d] + (gidx[d] - ranges[d].start);
                    }
                    out[off] = part[k];
                    k += 1;
                });
            }
            out
        } else {
            vec![0.0f32; total]
        };
        comm.bcast_f32(0, &assembled)
    }

    /// Copy a padded-coordinate box into a flat buffer (message packing).
    /// The innermost padded stride is 1, so each innermost row of the box
    /// is one contiguous slice — packing is a sequence of `memcpy`s, not
    /// per-element gathers. This runs in every halo exchange of all three
    /// DMP modes.
    pub fn pack_box(&self, b: &BoxNd, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(box_len(b));
        for_each_row(b, &self.strides, |_, start, len| {
            out.extend_from_slice(&self.data[start..start + len]);
        });
    }

    /// Scatter a flat buffer into a padded-coordinate box (unpacking),
    /// one contiguous innermost row per `copy_from_slice`.
    pub fn unpack_box(&mut self, b: &BoxNd, data: &[f32]) {
        assert_eq!(data.len(), box_len(b), "message size mismatch");
        let dst = &mut self.data;
        let mut cursor = 0;
        for_each_row(b, &self.strides, |_, start, len| {
            dst[start..start + len].copy_from_slice(&data[cursor..cursor + len]);
            cursor += len;
        });
    }

    /// The box of a named region for a given stencil radius.
    pub fn region(&self, region: Region, radius: usize) -> BoxNd {
        region_box(region, &self.local_shape, self.halo, radius)
    }
}

/// Visit each contiguous innermost row of box `b` as
/// `(first_index, linear_start, row_len)` in `for_each_index` order,
/// where `first_index` is the multi-index of the row's first point.
/// Relies on the row-major layout invariant that the innermost stride
/// is 1. Runs on every pack/unpack of the halo hot path, so the odometer
/// index lives on the stack — this function performs no heap allocation.
fn for_each_row(b: &[Range<usize>], strides: &[usize], mut f: impl FnMut(&[usize], usize, usize)) {
    let nd = b.len();
    assert!(nd <= MAX_ND, "box has more than {MAX_ND} dimensions");
    if b.iter().any(|r| r.is_empty()) {
        return;
    }
    debug_assert_eq!(strides[nd - 1], 1);
    let row_len = b[nd - 1].len();
    let outer = nd - 1;
    let mut idx = [0usize; MAX_ND];
    for d in 0..nd {
        idx[d] = b[d].start;
    }
    loop {
        let mut lin = b[nd - 1].start;
        for d in 0..outer {
            lin += idx[d] * strides[d];
        }
        f(&idx[..nd], lin, row_len);
        // Odometer over the outer dimensions.
        let mut d = outer;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < b[d].end {
                break;
            }
            idx[d] = b[d].start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_comm::Universe;

    fn decomp_2x2_4x4() -> Arc<Decomposition> {
        Arc::new(Decomposition::new(&[4, 4], &[2, 2]))
    }

    #[test]
    fn zero_initialized_with_padding() {
        let a = DistArray::new(decomp_2x2_4x4(), &[0, 0], 2);
        assert_eq!(a.local_shape(), &[2, 2]);
        assert_eq!(a.padded_shape(), &[6, 6]);
        assert!(a.raw().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn local_global_set_get() {
        let mut a = DistArray::new(decomp_2x2_4x4(), &[1, 0], 2);
        // Rank (1,0) owns global rows 2..4, cols 0..2.
        a.set_global(&[2, 1], 5.0);
        assert_eq!(a.get_global(&[2, 1]), Some(5.0));
        assert_eq!(a.get_local(&[0, 1]), 5.0);
        // Not owned -> no-op / None.
        a.set_global(&[0, 0], 9.0);
        assert_eq!(a.get_global(&[0, 0]), None);
        assert!(a.raw().iter().filter(|&&v| v != 0.0).count() == 1);
    }

    #[test]
    fn listing2_slice_write() {
        // Paper Listing 1 line 14: u.data[1:-1, 1:-1] = 1 on a 4x4 grid
        // decomposed over 4 ranks -> Listing 2 per-rank views.
        let expected = [
            "[[0.00 0.00]\n [0.00 1.00]]",
            "[[0.00 0.00]\n [1.00 0.00]]",
            "[[0.00 1.00]\n [0.00 0.00]]",
            "[[1.00 0.00]\n [0.00 0.00]]",
        ];
        let dc = Arc::new(Decomposition::new(&[4, 4], &[2, 2]));
        for rank in 0..4 {
            let coords = mpix_comm::CartComm::coords_of(&[2, 2], rank);
            let mut a = DistArray::new(Arc::clone(&dc), &coords, 2);
            a.fill_global_slice(&[1..3, 1..3], 1.0);
            assert_eq!(a.local_view_string(), expected[rank], "rank {rank}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut a = DistArray::new(decomp_2x2_4x4(), &[0, 0], 2);
        // Fill owned region with distinct values.
        for i in 0..2 {
            for j in 0..2 {
                a.set_local(&[i, j], (10 * i + j) as f32);
            }
        }
        let b: BoxNd = vec![2..4, 2..4]; // the owned region in padded coords
        let mut buf = Vec::new();
        a.pack_box(&b, &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 10.0, 11.0]);
        let target: BoxNd = vec![0..2, 2..4]; // left halo rows
        a.unpack_box(&target, &buf);
        assert_eq!(a.get_padded(&[0, 2]), 0.0);
        assert_eq!(a.get_padded(&[1, 2]), 10.0);
        assert_eq!(a.get_padded(&[1, 3]), 11.0);
    }

    #[test]
    fn gather_global_reassembles() {
        let out = Universe::run(4, |comm| {
            let dc = Arc::new(Decomposition::new(&[4, 4], &[2, 2]));
            let coords = mpix_comm::CartComm::coords_of(&[2, 2], comm.rank());
            let mut a = DistArray::new(dc, &coords, 2);
            // Each rank writes its globally-indexed value.
            for gi in 0..4 {
                for gj in 0..4 {
                    a.set_global(&[gi, gj], (gi * 4 + gj) as f32);
                }
            }
            a.gather_global(&comm)
        });
        let want: Vec<f32> = (0..16).map(|v| v as f32).collect();
        for got in out {
            assert_eq!(got, want);
        }
    }

    /// Every rank's coordinates in a `dims` process grid.
    fn all_coords(dims: &[usize]) -> Vec<Vec<usize>> {
        let p: usize = dims.iter().product();
        (0..p)
            .map(|r| mpix_comm::CartComm::coords_of(dims, r))
            .collect()
    }

    /// (global shape, process grid, global slice).
    type SliceCase = (&'static [usize], &'static [usize], &'static [Range<usize>]);

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // 1-D boxes hold one range
    fn fill_global_slice_writes_exactly_the_owned_share() {
        // 1-3 dimensions, odd extents, 1-4 ranks with uneven splits along every axis
        // (innermost included), slices crossing rank boundaries, and a
        // slice owned by another rank entirely.
        let cases: [SliceCase; 10] = [
            (&[4, 4], &[2, 2], &[3..4, 3..4]),
            (&[4, 4], &[2, 2], &[1..3, 1..3]),
            (&[9], &[1], &[2..7]),
            (&[9], &[2], &[0..9]),
            (&[11], &[3], &[3..8]),
            (&[7, 5], &[3, 1], &[1..6, 0..5]),
            (&[7, 5], &[1, 3], &[2..7, 1..4]),
            (&[5, 7], &[2, 2], &[0..3, 2..7]),
            (&[5, 3, 7], &[1, 1, 4], &[1..4, 0..2, 1..6]),
            (&[7, 5, 3], &[3, 1, 1], &[2..7, 1..5, 0..3]),
        ];
        let halo = 2;
        for (shape, dims, slice) in cases {
            let dc = Arc::new(Decomposition::new(shape, dims));
            let mut written = 0usize;
            for coords in all_coords(dims) {
                let mut a = DistArray::new(Arc::clone(&dc), &coords, halo);
                a.raw_mut().fill(-1.0);
                a.fill_global_slice(slice, 7.0);
                let owned: Vec<Range<usize>> = (0..shape.len())
                    .map(|d| dc.owned_range(d, coords[d]))
                    .collect();
                let all: BoxNd = a.padded_shape().iter().map(|&n| 0..n).collect();
                for_each_index(&all, |p| {
                    let global: Option<Vec<usize>> = (0..p.len())
                        .map(|d| p[d].checked_sub(halo).map(|l| l + owned[d].start))
                        .collect();
                    let inside = global.is_some_and(|g| {
                        (0..g.len()).all(|d| owned[d].contains(&g[d]) && slice[d].contains(&g[d]))
                    });
                    let want = if inside { 7.0 } else { -1.0 };
                    written += usize::from(inside);
                    assert_eq!(
                        a.get_padded(p),
                        want,
                        "{shape:?}/{dims:?} {coords:?} at {p:?}"
                    );
                });
            }
            let total: usize = slice.iter().map(|r| r.len()).product();
            assert_eq!(written, total, "{shape:?}/{dims:?}: slice covered once");
        }
    }

    #[test]
    fn global_rows_carry_their_first_global_index() {
        // Writing each point's own linear global index through the row
        // primitive must land every value at that point, on every rank.
        let (shape, dims) = ([5usize, 7, 6], [2usize, 1, 2]);
        let dc = Arc::new(Decomposition::new(&shape, &dims));
        let lin = |g: &[usize]| ((g[0] * shape[1] + g[1]) * shape[2] + g[2]) as f32;
        for coords in all_coords(&dims) {
            let mut a = DistArray::new(Arc::clone(&dc), &coords, 1);
            a.for_each_global_row_mut(&[1..5, 0..7, 2..6], |start, row| {
                let mut g = start.to_vec();
                for (k, v) in row.iter_mut().enumerate() {
                    g[2] = start[2] + k;
                    *v = lin(&g);
                }
            });
            for_each_index(&vec![1..5, 0..7, 2..6], |g| {
                if let Some(v) = a.get_global(g) {
                    assert_eq!(v, lin(g), "{coords:?} at {g:?}");
                }
            });
        }
    }
}

#[cfg(test)]
mod reduction_tests {
    use super::*;
    use mpix_comm::Universe;

    #[test]
    fn norms_match_serial_computation() {
        let vals = Universe::run(4, |comm| {
            let dc = Arc::new(Decomposition::new(&[6, 6], &[2, 2]));
            let coords = mpix_comm::CartComm::coords_of(&[2, 2], comm.rank());
            let mut a = DistArray::new(dc, &coords, 2);
            for i in 0..6 {
                for j in 0..6 {
                    a.set_global(&[i, j], (i * 6 + j) as f32);
                }
            }
            (a.norm2(&comm), a.global_sum(&comm), a.norm_inf(&comm))
        });
        let exact_sum: f64 = (0..36).map(|v| v as f64).sum();
        let exact_norm2: f64 = (0..36).map(|v| (v * v) as f64).sum::<f64>().sqrt();
        for (n2, s, ninf) in vals {
            assert!((n2 - exact_norm2).abs() < 1e-6, "{n2}");
            assert!((s - exact_sum).abs() < 1e-6, "{s}");
            assert_eq!(ninf, 35.0);
        }
    }

    #[test]
    fn read_global_slice_matches_written_data() {
        let out = Universe::run(4, |comm| {
            let dc = Arc::new(Decomposition::new(&[8, 8], &[2, 2]));
            let coords = mpix_comm::CartComm::coords_of(&[2, 2], comm.rank());
            let mut a = DistArray::new(dc, &coords, 2);
            for i in 0..8 {
                for j in 0..8 {
                    a.set_global(&[i, j], (10 * i + j) as f32);
                }
            }
            // A slice straddling all four ranks.
            a.read_global_slice(&[2..7, 3..6], &comm)
        });
        let want: Vec<f32> = (2..7)
            .flat_map(|i| (3..6).map(move |j| (10 * i + j) as f32))
            .collect();
        for got in out {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn read_global_slice_single_rank() {
        let out = Universe::run(1, |comm| {
            let dc = Arc::new(Decomposition::new(&[4, 4], &[1, 1]));
            let mut a = DistArray::new(dc, &[0, 0], 2);
            a.fill_global_slice(&[1..3, 1..3], 5.0);
            a.read_global_slice(&[0..4, 0..4], &comm)
        });
        assert_eq!(out[0].iter().filter(|&&v| v == 5.0).count(), 4);
    }
}
