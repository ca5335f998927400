//! The output check must fail on bad output: a run whose halo exchanges
//! are dropped, and a reference value that is off.

use std::sync::Arc;

use mpix_codegen::executor::Fault;
use mpix_perfbench::check::NormCheck;
use mpix_perfbench::solver::{self, SolverWorkload};
use mpix_perfbench::spans::Spans;
use mpix_perfbench::Measured;

/// `acoustic-so16-halo-full` (2 ranks, full mode, JIT) shrunk to a
/// 24³ padded model and 8 steps so the scalar oracle stays quick.
fn small_halo_full() -> SolverWorkload {
    SolverWorkload {
        edge: 16,
        nt: 8,
        cold_setups: 1,
        warmup: 0,
        ..solver::acoustic_so16_halo_full()
    }
}

fn run(fault: Option<Fault>) -> Measured {
    let spans = Arc::new(Spans::new(false));
    Measured::Solver(solver::run(
        &small_halo_full(),
        7,
        0.0,
        false,
        &spans,
        fault,
    ))
}

#[test]
fn clean_run_matches_the_serial_oracle() {
    let m = run(None);
    let out = m.outcome(false);
    assert!(out.correct, "{}", m.verdict());
    assert_eq!(out.failed, 0);
    assert!(m.verdict().starts_with("PASS"));
}

#[test]
fn dropped_halo_exchange_fails_the_check() {
    let m = run(Some(Fault::DropExchange));
    let out = m.outcome(false);
    assert!(!out.correct, "stale halos went unnoticed: {}", m.verdict());
    assert_eq!(
        out.failed, out.attempted,
        "every faulty run is a failed operation"
    );
    assert!(m.verdict().starts_with("FAIL"));
}

#[test]
fn perturbed_reference_fails_the_check() {
    let Measured::Solver(r) = run(None) else {
        unreachable!()
    };
    let good = &r.checks[0];
    assert!(good.passed());
    for factor in [1.0 + 1e-4, 1.0 - 1e-4, 2.0, 0.0, f64::NAN] {
        let bad = NormCheck::new(good.got, good.reference * factor);
        assert!(
            !bad.passed(),
            "reference x{factor} accepted: {}",
            bad.describe()
        );
    }
}
