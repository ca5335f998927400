//! Single-rank stencil-kernel throughput per propagator and SDO, the
//! loop-blocking ablation (DESIGN.md §5.2), and the trace-overhead
//! check: `TraceLevel::Off` spans must cost one predictable branch, so
//! a disabled-trace run stays within noise of the untraced baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpix_core::{ApplyOptions, Backend, TraceLevel};
use mpix_solvers::{KernelKind, ModelSpec, Propagator};

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_step");
    g.sample_size(10);
    for kind in KernelKind::all() {
        for so in [4u32, 8] {
            let spec = ModelSpec::new(&[20, 20, 20]).with_nbl(2);
            let prop = Propagator::build(kind, spec, so);
            let points = prop.points_per_step();
            g.throughput(Throughput::Elements(points));
            g.bench_with_input(
                BenchmarkId::new(kind.name(), format!("so{so}")),
                &prop,
                |b, prop| {
                    let opts = prop.apply_options(1);
                    b.iter(|| {
                        prop.op
                            .run(
                                &opts,
                                |ws| prop.init(ws),
                                |ws| ws.field_final(prop.main_field()).raw()[0],
                            )
                            .results[0]
                    });
                },
            );
        }
    }
    g.finish();
}

/// Scalar interpreter vs the lane-vectorized strip engine at every
/// supported width, per SDO — the runtime analogue of the paper's
/// `omp simd` ablation. `vw0` rows are the scalar baseline.
fn bench_vector_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("vector_width");
    g.sample_size(10);
    for so in [4u32, 8, 12, 16] {
        let spec = ModelSpec::new(&[24, 24, 24]).with_nbl(2);
        let prop = Propagator::build(KernelKind::Acoustic, spec, so);
        g.throughput(Throughput::Elements(prop.points_per_step()));
        for vw in [0usize, 8, 16, 32] {
            g.bench_with_input(
                BenchmarkId::new(format!("acoustic_so{so}"), format!("vw{vw}")),
                &vw,
                |b, &vw| {
                    let opts = prop
                        .apply_options(1)
                        .with_backend(Backend::Bytecode)
                        .with_vector_width(vw);
                    b.iter(|| {
                        prop.op
                            .run(
                                &opts,
                                |ws| prop.init(ws),
                                |ws| ws.field_final(prop.main_field()).raw()[0],
                            )
                            .results[0]
                    });
                },
            );
        }
    }
    g.finish();
}

fn bench_blocking(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocking_ablation");
    g.sample_size(10);
    let spec = ModelSpec::new(&[28, 28, 28]).with_nbl(2);
    let prop = Propagator::build(KernelKind::Acoustic, spec, 8);
    for block in [0usize, 4, 8, 16] {
        g.bench_with_input(
            BenchmarkId::new("acoustic_so8", block),
            &block,
            |b, &block| {
                let opts: ApplyOptions = prop.apply_options(2).with_block(block);
                b.iter(|| {
                    prop.op
                        .run(
                            &opts,
                            |ws| prop.init(ws),
                            |ws| ws.field_final(prop.main_field()).raw()[0],
                        )
                        .results[0]
                });
            },
        );
    }
    g.finish();
}

/// The same multi-rank apply at every trace level. `off` vs the other
/// rows bounds the cost of the disabled instrumentation (<2% target);
/// `summary`/`full` show what enabling observability actually costs.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    let spec = ModelSpec::new(&[20, 20, 20]).with_nbl(2);
    let prop = Propagator::build(KernelKind::Acoustic, spec, 4);
    g.throughput(Throughput::Elements(prop.points_per_step() * 4));
    for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Full] {
        g.bench_with_input(
            BenchmarkId::new("acoustic_so4_4ranks", level.name()),
            &level,
            |b, &level| {
                let opts = prop.apply_options(4).with_ranks(4).with_trace(level);
                b.iter(|| {
                    prop.op
                        .run(
                            &opts,
                            |ws| prop.init(ws),
                            |ws| ws.field_final(prop.main_field()).raw()[0],
                        )
                        .results[0]
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_vector_width,
    bench_blocking,
    bench_trace_overhead
);
criterion_main!(benches);
