//! Structural guard on model initialisation: `Propagator::init` must
//! write its fields in bulk, so the number of heap allocations it makes
//! cannot depend on the grid size. A per-point allocation anywhere on the
//! init path (a per-point `Vec`, a per-point ownership lookup that
//! allocates) makes the 48³ count exceed the 16³ count and fails here,
//! deterministically and without any timing.
//!
//! The counting allocator counts per thread, so other tests' threads and
//! the simulated rank's own runtime never enter the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpix::comm::{CartComm, Universe};
use mpix::core::Workspace;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor needs a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations one `Propagator::init` makes on a fresh single-rank
/// workspace of `n³` interior points.
fn init_allocations(kind: KernelKind, n: usize) -> usize {
    let p = Propagator::build(kind, ModelSpec::new(&[n, n, n]), 4);
    let counts = Universe::run(1, |comm| {
        let cart = CartComm::new(comm, &[1, 1, 1]);
        let mut ws = Workspace::new(p.op.ctx(), p.op.grid(), cart);
        let before = ALLOCS.with(Cell::get);
        p.init(&mut ws);
        ALLOCS.with(Cell::get) - before
    });
    counts[0]
}

#[test]
fn init_allocations_do_not_grow_with_the_grid() {
    for kind in KernelKind::all() {
        let small = init_allocations(kind, 16);
        let large = init_allocations(kind, 48);
        assert_eq!(
            small,
            large,
            "{}: Propagator::init allocates {small} times at 16³ but {large} times at 48³",
            kind.name()
        );
    }
}
