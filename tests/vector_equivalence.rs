//! The vector-engine correctness claim: lane-vectorized strip execution
//! (every supported width, including boxes whose inner extent is not a
//! multiple of the width) is **bitwise identical** to the scalar
//! interpreter, alone and composed with loop blocking and slab
//! threading, across 1D/2D/3D grids and space orders 4/8.
//!
//! Bitwise — not approximately — because the strip interpreter performs
//! the same f32 operations in the same per-point order as the scalar
//! path, and the superinstruction fusion pass keeps mul-then-add
//! rounding (no FMA contraction).

use mpix::prelude::*;
use proptest::prelude::*;

/// Diffusion-style operator `u.dt = laplace(u)` over an arbitrary grid.
fn laplace_op(shape: &[usize], so: u32) -> Operator {
    let mut ctx = Context::new();
    let spacing: Vec<f64> = shape.iter().map(|_| 0.1).collect();
    let grid = Grid::new(shape, &spacing);
    let u = ctx.add_time_function("u", &grid, so, 1);
    let eq = Eq::new(u.dt(), u.laplace());
    let st = eq.solve_for(&u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![st]).unwrap()
}

/// Run `nt` steps on the bytecode interpreter with the given execution
/// knobs and gather the full global field, bit-exact. The backend is
/// pinned: the default JIT ignores the lane width.
fn run_config(op: &Operator, shape: &[usize], vw: usize, block: usize, threads: usize) -> Vec<f32> {
    let opts = ApplyOptions::default()
        .with_backend(Backend::Bytecode)
        .with_dt(0.001)
        .with_nt(3)
        .with_vector_width(vw)
        .with_block(block)
        .with_threads(threads);
    let shape = shape.to_vec();
    let applied = op.run(
        &opts,
        move |ws: &mut Workspace| {
            let u = ws.field_data_mut("u", 0);
            // Deterministic non-uniform seed so every tap matters.
            let mut i = 0usize;
            let mut idx = vec![0usize; shape.len()];
            loop {
                u.set_global(&idx, ((i * 7 + 3) % 23) as f32 * 0.25);
                i += 1;
                let mut d = shape.len();
                loop {
                    if d == 0 {
                        return;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < shape[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        },
        |ws| ws.gather("u"),
    );
    applied.results.into_iter().next().unwrap()
}

fn assert_all_widths_bitwise_equal(shape: &[usize], so: u32) {
    let op = laplace_op(shape, so);
    let scalar = run_config(&op, shape, 0, 0, 1);
    for vw in [8usize, 16, 32] {
        let vec_out = run_config(&op, shape, vw, 0, 1);
        for (k, (a, b)) in scalar.iter().zip(&vec_out).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shape={shape:?} so={so} vw={vw} idx={k}: {a} vs {b}"
            );
        }
    }
    // Composed with blocking and threading at one representative width.
    for (vw, block, threads) in [(16usize, 4usize, 1usize), (8, 0, 3), (16, 4, 2)] {
        let out = run_config(&op, shape, vw, block, threads);
        for (k, (a, b)) in scalar.iter().zip(&out).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shape={shape:?} so={so} vw={vw} block={block} threads={threads} idx={k}"
            );
        }
    }
}

#[test]
fn vectorized_matches_scalar_1d() {
    // 13 and 40: remainder-only and strip+remainder inner extents.
    assert_all_widths_bitwise_equal(&[13], 4);
    assert_all_widths_bitwise_equal(&[40], 8);
}

#[test]
fn vectorized_matches_scalar_2d() {
    assert_all_widths_bitwise_equal(&[9, 21], 4);
    assert_all_widths_bitwise_equal(&[7, 33], 8);
}

#[test]
fn vectorized_matches_scalar_3d() {
    assert_all_widths_bitwise_equal(&[6, 7, 19], 4);
    assert_all_widths_bitwise_equal(&[5, 6, 37], 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 2D/3D shapes with awkward inner extents: scalar and every
    /// vector width agree bit-for-bit.
    #[test]
    fn random_shapes_bitwise_equal(
        nd in 1usize..=3,
        inner in 5usize..40,
        outer in 5usize..9,
        so in prop_oneof![Just(4u32), Just(8u32)],
    ) {
        let mut shape = vec![outer; nd - 1];
        shape.push(inner);
        let op = laplace_op(&shape, so);
        let scalar = run_config(&op, &shape, 0, 0, 1);
        for vw in [8usize, 16, 32] {
            let v = run_config(&op, &shape, vw, 0, 1);
            for (a, b) in scalar.iter().zip(&v) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
