//! Data-region aliases (paper Fig. 4) and iteration boxes.
//!
//! All boxes are expressed in *padded local coordinates*: the rank-local
//! array is allocated with `halo` ghost points on each side, so owned
//! point `i` lives at padded index `i + halo`.

use std::ops::Range;

/// An axis-aligned n-dimensional index box: one half-open range per
/// dimension, in padded local coordinates.
pub type BoxNd = Vec<Range<usize>>;

/// Most dimensions a box can have, so row drivers can keep their
/// odometer index on the stack. Generous: the paper's grids are ≤ 3-D.
pub const MAX_ND: usize = 8;

/// The region aliases the compiler reasons with (Fig. 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Region {
    /// Points whose stencil reads stay inside DOMAIN (no halo reads).
    Core,
    /// Points that read from HALO: DOMAIN minus CORE (the "remainder").
    Owned,
    /// All writable points: CORE ∪ OWNED.
    Domain,
    /// DOMAIN extended by the exchange radius on every side.
    Full,
}

/// Compute the box for `region` given the owned `local` shape, the
/// allocated `halo` width, and the stencil `radius` (exchange width).
///
/// When a dimension is so small that `2*radius` exceeds it, CORE is empty
/// along that dimension (returned as an empty range).
pub fn region_box(region: Region, local: &[usize], halo: usize, radius: usize) -> BoxNd {
    // Only FULL reaches into the ghost region, so only it requires the
    // allocated halo to cover the radius; CORE/DOMAIN boxes are also used
    // with `halo = 0` to express owned-local coordinates.
    assert!(
        radius <= halo || region != Region::Full,
        "exchange radius exceeds allocated halo"
    );
    local
        .iter()
        .map(|&n| match region {
            Region::Domain => halo..halo + n,
            Region::Full => halo - radius..halo + n + radius,
            Region::Core => {
                // Clamp to DOMAIN so tiny dimensions (n < radius) yield an
                // empty core *inside* the domain, never spilling into halo.
                let lo = (halo + radius).min(halo + n);
                let hi = (halo + n).saturating_sub(radius);
                lo..hi.max(lo)
            }
            Region::Owned => halo..halo + n, // bounding box; use remainder_boxes
        })
        .collect()
}

/// Decompose DOMAIN minus CORE into disjoint boxes (the REMAINDER areas
/// of Fig. 5). CORE is shrunk by `radius` on both sides of *every*
/// dimension, decomposed or not and whether or not a side has a
/// neighbour to exchange with, so REMAINDER is the full `radius`-deep
/// shell of the domain: up to two strips per dimension.
///
/// The decomposition peels one dimension at a time: for dimension `d` the
/// low/high strips span the *core* range in dimensions `< d` and the full
/// domain in dimensions `> d`, which yields pairwise-disjoint boxes whose
/// union is exactly `DOMAIN \ CORE`.
pub fn remainder_boxes(local: &[usize], halo: usize, radius: usize) -> Vec<BoxNd> {
    let nd = local.len();
    let domain = region_box(Region::Domain, local, halo, radius);
    let core = region_box(Region::Core, local, halo, radius);
    let mut out = Vec::new();
    for d in 0..nd {
        // Low strip: domain start up to core start.
        let mut push_strip = |strip: Range<usize>| {
            if strip.is_empty() {
                return;
            }
            let mut b: BoxNd = Vec::with_capacity(nd);
            for e in 0..nd {
                if e < d {
                    b.push(core[e].clone());
                } else if e == d {
                    b.push(strip.clone());
                } else {
                    b.push(domain[e].clone());
                }
            }
            if b.iter().all(|r| !r.is_empty()) {
                out.push(b);
            }
        };
        push_strip(domain[d].start..core[d].start);
        push_strip(core[d].end..domain[d].end);
    }
    out
}

/// Number of points in a box.
pub fn box_len(b: &BoxNd) -> usize {
    b.iter().map(|r| r.len()).product()
}

/// Visit every multi-index of a box in row-major order.
pub fn for_each_index(b: &BoxNd, mut f: impl FnMut(&[usize])) {
    let nd = b.len();
    if b.iter().any(|r| r.is_empty()) {
        return;
    }
    let mut idx: Vec<usize> = b.iter().map(|r| r.start).collect();
    loop {
        f(&idx);
        // Increment odometer, innermost (last) dimension fastest.
        let mut d = nd;
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
    use proptest::prelude::*;

    #[test]
    fn region_boxes_nest_correctly() {
        let local = [10, 8];
        let (halo, r) = (4, 2);
        let full = region_box(Region::Full, &local, halo, r);
        let dom = region_box(Region::Domain, &local, halo, r);
        let core = region_box(Region::Core, &local, halo, r);
        assert_eq!(dom, vec![4..14, 4..12]);
        assert_eq!(full, vec![2..16, 2..14]);
        assert_eq!(core, vec![6..12, 6..10]);
    }

    #[test]
    fn tiny_domain_has_empty_core() {
        let core = region_box(Region::Core, &[3], 4, 2);
        assert!(core[0].is_empty());
        // Remainder must then cover the whole domain.
        let rb = remainder_boxes(&[3], 4, 2);
        let total: usize = rb.iter().map(box_len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn remainder_plus_core_covers_domain_2d() {
        let local = [10, 8];
        let (halo, r) = (4, 2);
        let core = region_box(Region::Core, &local, halo, r);
        let rb = remainder_boxes(&local, halo, r);
        let total: usize = rb.iter().map(box_len).sum::<usize>() + box_len(&core);
        assert_eq!(total, 80);
    }

    #[test]
    fn remainder_boxes_are_disjoint() {
        let local = [6, 6, 6];
        let rb = remainder_boxes(&local, 4, 2);
        let mut seen = std::collections::HashSet::new();
        for b in &rb {
            for_each_index(b, |idx| {
                assert!(seen.insert(idx.to_vec()), "duplicate point {idx:?}");
            });
        }
    }

    #[test]
    fn for_each_index_row_major() {
        let b: BoxNd = vec![0..2, 1..3];
        let mut got = Vec::new();
        for_each_index(&b, |i| got.push(i.to_vec()));
        assert_eq!(got, vec![vec![0, 1], vec![0, 2], vec![1, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic]
    fn radius_beyond_halo_rejected() {
        region_box(Region::Full, &[8], 2, 3);
    }

    proptest! {
        #[test]
        fn prop_core_plus_remainder_equals_domain(
            nx in 1usize..12, ny in 1usize..12, nz in 1usize..12,
            r in 1usize..4,
        ) {
            let halo = 4;
            let local = [nx, ny, nz];
            let core = region_box(Region::Core, &local, halo, r);
            let rb = remainder_boxes(&local, halo, r);
            let mut seen = std::collections::HashSet::new();
            let mut overlaps = 0usize;
            for_each_index(&core, |i| {
                if !seen.insert(i.to_vec()) {
                    overlaps += 1;
                }
            });
            for b in &rb {
                for_each_index(b, |i| {
                    if !seen.insert(i.to_vec()) {
                        overlaps += 1;
                    }
                });
            }
            prop_assert_eq!(overlaps, 0, "boxes overlap");
            prop_assert_eq!(seen.len(), nx * ny * nz);
        }
    }
}
