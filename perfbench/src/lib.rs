//! End-to-end and per-layer benchmark of the mpix workspace.
//!
//! Three workloads (see `perfbench/README.md` for why each was chosen):
//! `tti-so8-compute`, `acoustic-so16-halo-full` and `serve-mixed`. Every
//! layer is measured from outside, by timing the benchmark's own calls
//! into public functions and reading public counters.

pub mod check;
pub mod provenance;
pub mod report;
pub mod serve;
pub mod solver;
pub mod spans;
pub mod stats;

use std::sync::Arc;

use report::Outcome;
use solver::SolverRun;
use spans::Spans;

/// Every lock here guards plain data a panicking thread cannot leave
/// half-updated; a poisoned lock means a measured call panicked.
pub(crate) const POISONED: &str = "lock poisoned by a panic in a measured call";

pub const WORKLOADS: [&str; 3] = ["tti-so8-compute", "acoustic-so16-halo-full", serve::NAME];

/// What one invocation measured.
pub enum Measured {
    Solver(SolverRun),
    Serve(serve::ServeRun),
}

/// Run workload `name`; `None` for an unknown name.
pub fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &Arc<Spans>,
) -> Option<Measured> {
    let w = match name {
        "tti-so8-compute" => solver::tti_so8_compute(),
        "acoustic-so16-halo-full" => solver::acoustic_so16_halo_full(),
        serve::NAME => return Some(Measured::Serve(serve::run(seed, seconds, traced, spans))),
        _ => return None,
    };
    Some(Measured::Solver(solver::run(
        &w, seed, seconds, traced, spans, None,
    )))
}

impl Measured {
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub fn outcome(&self, traced: bool) -> Outcome {
        let (attempted, failed, metrics) = match self {
            Measured::Solver(r) => (
                r.attempted(),
                r.failed(),
                if traced {
                    r.per_layer()
                } else {
                    r.end_to_end()
                },
            ),
            Measured::Serve(r) => (
                r.attempted(),
                r.failed(),
                if traced {
                    r.per_layer()
                } else {
                    r.end_to_end()
                },
            ),
        };
        let finite = metrics.iter().all(|m| m.value.is_finite());
        Outcome {
            correct: failed == 0 && finite,
            attempted,
            failed,
            metrics,
        }
    }

    /// One line saying whether the outputs were right, and why not.
    pub fn verdict(&self) -> String {
        match self {
            Measured::Solver(r) => {
                let bad: Vec<_> = r.checks.iter().filter(|c| !c.passed()).collect();
                match bad.first() {
                    None => format!("PASS {} runs: {}", r.checks.len(), r.checks[0].describe()),
                    Some(c) => format!(
                        "FAIL {} of {} runs: {}",
                        bad.len(),
                        r.checks.len(),
                        c.describe()
                    ),
                }
            }
            Measured::Serve(r) => match r.failures.first() {
                None => format!(
                    "PASS {} jobs done with expected points; {} compiles per sample = unique keys",
                    r.attempted(),
                    r.unique_keys
                ),
                Some(f) => format!("FAIL {} checks: {f}", r.failures.len()),
            },
        }
    }

    /// The seeded inputs, in words.
    pub fn inputs(&self) -> String {
        match self {
            Measured::Solver(r) => {
                format!("source offset {:?} points from centre", r.inputs.offset)
            }
            Measured::Serve(r) => format!(
                "{} jobs per sample in seeded order, {} unique keys",
                r.jobs_per_sample, r.unique_keys
            ),
        }
    }

    pub fn working_set_bytes(&self) -> u64 {
        match self {
            Measured::Solver(r) => r.working_set_bytes(),
            Measured::Serve(r) => r.working_set_bytes,
        }
    }
}
