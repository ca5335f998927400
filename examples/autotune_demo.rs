//! The paper's §IV-F future-work items, implemented: automated selection
//! of the MPI pattern, the cache-blocking tile, and the *full*-mode
//! topology, all by short timed trials on the real simulated cluster.
//!
//! ```sh
//! cargo run --release --example autotune_demo
//! ```

use mpix::prelude::*;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};

fn main() {
    let spec = ModelSpec::new(&[28, 28, 28]).with_nbl(4);
    let prop = Propagator::build(KernelKind::Acoustic, spec.clone(), 8);
    let base = prop.apply_options(0);

    println!("## Automated MPI-pattern selection (paper §IV-F future work)");
    let pref = &prop;
    let report = prop
        .op
        .autotune_mode(8, None, &base, 4, move |ws| pref.init(ws));
    for (mode, secs) in &report.trials {
        let marker = if *mode == report.best {
            "  <-- best"
        } else {
            ""
        };
        println!("  {mode:?}: {secs:.3}s{marker}");
    }

    println!("\n## Automated loop-blocking tile selection (paper §IV-C autotuning)");
    let report = prop
        .op
        .autotune_block(&base, 2, &[0, 4, 8, 16, 32], move |ws| pref.init(ws));
    for (block, secs) in &report.trials {
        let label = if *block == 0 {
            "unblocked".to_string()
        } else {
            format!("tile {block}")
        };
        let marker = if *block == report.best {
            "  <-- best"
        } else {
            ""
        };
        println!("  {label}: {secs:.3}s{marker}");
    }

    println!("\n## Joint tile x lane-width sweep (blocking + simd-strip engine)");
    // The lane width is an interpreter knob: the default JIT ignores it.
    let interp = base.clone().with_backend(Backend::Bytecode);
    let report = prop
        .op
        .autotune_exec(&interp, 2, &[0, 8, 16], &[0, 8, 16, 32], move |ws| {
            pref.init(ws)
        });
    for ((block, vw), secs) in &report.trials {
        let marker = if (*block, *vw) == report.best {
            "  <-- best"
        } else {
            ""
        };
        println!("  block={block} vw={vw}: {secs:.3}s{marker}");
    }

    println!("\n## Automated topology selection for full mode (paper §IV-F)");
    let base_full = base.clone().with_mode(HaloMode::Full);
    let report = prop
        .op
        .autotune_topology(8, &base_full, 3, move |ws| pref.init(ws));
    for (topo, secs) in &report.trials {
        let marker = if *topo == report.best {
            "  <-- best"
        } else {
            ""
        };
        println!("  topology {topo:?}: {secs:.3}s{marker}");
    }
    println!(
        "\nchosen: topology {:?} — \"customizing the decomposition to only\n\
         split in x and y\" trades bigger messages for unbroken vector strides,\n\
         exactly the trade-off the paper discusses.",
        report.best
    );

    println!("\n## Environment-driven configuration (like the paper's job scripts)");
    println!("  MPIX_MPI=diag2 MPIX_BLOCK=16 MPIX_THREADS=4 MPIX_VW=16 <binary>");
    let env_opts = ApplyOptions::from_env();
    println!(
        "  current env resolves to mode={:?}, block={}, threads={}, vector_width={}, backend={}",
        env_opts.mode, env_opts.block, env_opts.threads, env_opts.vector_width, env_opts.backend
    );
}
