//! The floating-point environment around kernel execution: every
//! kernel thread runs with FTZ|DAZ (subnormals flushed), while the
//! thread that hosts a run gets its MXCSR mode back unchanged — after
//! clean runs and after a kernel panic alike.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mpix::codegen::executor::Fault;
use mpix::codegen::fpenv::{mxcsr, FpEnvGuard, MXCSR_FLAGS};
use mpix::comm::{dims_create, CartComm};
use mpix::prelude::*;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};

/// `u.dt = laplace(u)` on a 12×10 grid.
fn heat_op() -> Operator {
    let mut ctx = Context::new();
    let grid = Grid::new(&[12, 10], &[1.0, 1.0]);
    let u = ctx.add_time_function("u", &grid, 2, 1);
    let eq = Eq::new(u.dt(), u.laplace());
    let st = eq.solve_for(&u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![st]).unwrap()
}

/// `u.forward = c·u` with `c` never bound: every rank panics inside the
/// executor, with its guard held.
fn unbound_scalar_op() -> Operator {
    let mut ctx = Context::new();
    let grid = Grid::new(&[8, 8], &[1.0, 1.0]);
    let u = ctx.add_time_function("u", &grid, 2, 1);
    let eq = Eq::new(u.forward(), Expr::sym("c") * u.center());
    Operator::build(ctx, grid, vec![eq]).unwrap()
}

thread_local! {
    /// The mode a rank thread's init closure observed.
    static INIT_MODE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Run the heat operator; per rank, the modes its init and extract
/// closures observed (both run on the rank thread, before and after the
/// executor's guard is held).
fn run_heat(op: &Operator, opts: &ApplyOptions) -> Vec<(Option<u32>, Option<u32>)> {
    op.run(
        opts,
        |ws| {
            INIT_MODE.set(mode());
            ws.field_data_mut("u", 0)
                .fill_global_slice(&[3..8, 3..7], 1.0);
        },
        |_| (INIT_MODE.get(), mode()),
    )
    .results
}

/// This thread's MXCSR without the sticky exception flags, which
/// ordinary arithmetic sets.
fn mode() -> Option<u32> {
    mxcsr().map(|m| m & !MXCSR_FLAGS)
}

/// The message of a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn rank_thread_mode_is_unchanged_by_runs() {
    let op = heat_op();
    let configs = [
        ApplyOptions::default().with_nt(4).with_dt(0.1),
        ApplyOptions::default()
            .with_nt(4)
            .with_dt(0.1)
            .with_ranks(2)
            .with_threads(2),
    ];
    for opts in configs {
        // The caller unflushed and already flushed: restoring means "as
        // found", not "back to the IEEE default".
        for caller_flushes in [false, true] {
            let _caller = caller_flushes.then(FpEnvGuard::enter);
            let before = mode();
            let ranks = run_heat(&op, &opts);
            let ctx = format!(
                "ranks={} threads={} caller_flushes={caller_flushes}",
                opts.ranks, opts.threads
            );
            // Ranks run on their own threads; this pins that no rank is
            // ever run inline on the caller's thread with a leaked mode.
            assert_eq!(mode(), before, "{ctx}");
            // The rank thread's own mode is back by the time its extract
            // closure runs.
            for (r, (init, extract)) in ranks.into_iter().enumerate() {
                assert_eq!(init, extract, "{ctx} rank {r}");
            }
        }
    }
}

#[test]
fn rank_thread_mode_is_restored_after_a_kernel_panic() {
    let op = unbound_scalar_op();
    for ranks in [1, 2] {
        let opts = ApplyOptions::default()
            .with_nt(2)
            .with_ranks(ranks)
            .with_threads(2)
            .with_verify(false);
        let exec = op.executable_for(&opts);
        let dims = dims_create(ranks, op.grid().ndim());
        // Drive `Operator::apply` on each rank thread directly and catch
        // the unwind there, so the thread whose guard unwound is the one
        // whose mode is compared.
        let per_rank = Universe::run(ranks, |comm| {
            let mut ws = Workspace::new(op.ctx(), op.grid(), CartComm::new(comm, &dims));
            let before = mode();
            let outcome = catch_unwind(AssertUnwindSafe(|| op.apply(&mut ws, &exec, &opts)));
            let msg = panic_message(&*outcome.expect_err("an unbound scalar must panic"));
            (before, mode(), msg)
        });
        for (r, (before, after, msg)) in per_rank.into_iter().enumerate() {
            assert!(msg.contains("missing runtime scalar"), "rank {r}: {msg}");
            assert_eq!(after, before, "ranks={ranks} rank {r}");
        }
    }
}

#[test]
fn a_rank_panic_reaches_the_caller_with_its_mode_unchanged() {
    let op = unbound_scalar_op();
    for ranks in [1, 2] {
        let opts = ApplyOptions::default()
            .with_nt(2)
            .with_ranks(ranks)
            .with_threads(2)
            .with_verify(false);
        let before = mode();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_heat(&op, &opts)));
        let msg = panic_message(&*outcome.expect_err("Universe::run re-raises the rank panic"));
        assert!(msg.contains("missing runtime scalar"), "{msg}");
        assert_eq!(mode(), before, "ranks={ranks}");
    }
}

/// Subnormal values left in the acoustic main field after 64 steps of
/// SDO 8 with a Ricker source: the wavefront's decaying tail. The model
/// must be large enough that the tail has not yet filled it (at 48³ IEEE
/// arithmetic leaves ~2000 subnormals; at 32³ none remain by step 64).
fn subnormals_after_64_steps(fault: Option<Fault>) -> usize {
    let prop = Propagator::build(KernelKind::Acoustic, ModelSpec::new(&[48, 48, 48]), 8);
    let nt = 64i64;
    let backend = if mpix::available_backends().contains(&Backend::Jit) {
        Backend::Jit
    } else {
        Backend::Bytecode
    };
    let mut opts = prop
        .apply_options(nt)
        .with_backend(backend)
        .with_vector_width(if backend == Backend::Jit { 0 } else { 16 });
    opts.fault = fault;
    let pref = &prop;
    let field = prop
        .op
        .run(
            &opts,
            |ws| {
                pref.init(ws);
                pref.add_ricker_source(ws, 18.0, nt as usize);
            },
            |ws| ws.gather(pref.main_field()),
        )
        .results
        .remove(0);
    field.iter().filter(|v| v.is_subnormal()).count()
}

#[test]
fn kernels_flush_subnormals() {
    // Off x86-64 the guard is a no-op: kernels run IEEE.
    if mxcsr().is_none() {
        return;
    }
    assert_eq!(subnormals_after_64_steps(None), 0);
    // The same run with the guard skipped (test threads start in IEEE
    // mode) does produce subnormals, so the zero above is the guard's
    // doing and not a property of the data.
    let ieee = subnormals_after_64_steps(Some(Fault::NoFlush));
    assert!(ieee > 0, "IEEE arithmetic produced no subnormals");
}
