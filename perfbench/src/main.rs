//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance block, every metric by name with its unit, the
//! output-check verdict, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a check
//! fails, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mpix_perfbench::spans::{self, Spans};
use mpix_perfbench::{measure, provenance, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value:?}: not a valid value");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    // The program reads MPIX_SAN and the communicator's MPIX_COMM_SHARDS,
    // MPIX_SPIN_YIELDS and MPIX_RECV_TIMEOUT_MS on every run, so a stray
    // variable would measure a different program.
    let stray: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("MPIX_"))
        .collect();
    if !stray.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", stray.join(", "));
        std::process::exit(2);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });

    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(bench_dir);
    let recorder = Arc::new(Spans::new(args.trace));
    let measured = measure(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &recorder,
    )
    .expect("workload name validated");
    let outcome = measured.outcome(args.trace);

    let prov = provenance::block(
        root,
        &args.workload,
        args.seed,
        measured.working_set_bytes(),
    );
    println!("provenance {}", prov.compact());
    println!("inputs {}", measured.inputs());
    for m in &outcome.metrics {
        println!("metric {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    println!("check {}", measured.verdict());
    if args.trace {
        let spans = recorder.take();
        for (name, (count, own)) in spans::self_time_by_name(&spans) {
            println!("self {name:<20} {own:>12.6} s over {count} spans");
        }
        let path: PathBuf = bench_dir
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match spans::write_jsonl(&path, &spans) {
            Ok(()) => println!("spans {} ({} spans)", path.display(), spans.len()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.result_line());
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
