//! Pins the allocation-free closure loops with a counting allocator.
//!
//! Algorithm 2's descent scores each level's candidate merges on the
//! quotient machine: `ClosureKernel::quotient_level` builds the quotient
//! table and forbidden block pairs in a `CloseScratch`, and every
//! `QuotientLevel::merge` / `lift_into` reuses those buffers and one output
//! `Partition`; `QuotientLevel::descend` rebuilds the level in place from
//! the kept merge, and the merges that fail are remembered in the same
//! buffers.  The lower-cover walks close merges through
//! `ClosureKernel::close_merged_into`, which threads the same scratch
//! (union-find, seed table, class→successor map, relabel buffers).  After
//! one warm-up pass at a given machine size (or block count) neither path
//! may touch the global allocator.  These tests swap in an
//! allocation-counting global allocator and assert exactly that, which is
//! what keeps the descent hot loop out of malloc at `|⊤| = 729`
//! (`alg2_search_n729_f2` in `BENCH_fusion.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsm_fusion::fusion::{CloseScratch, ClosureKernel, FaultGraph, Partition, QuotientMerge};
use fsm_fusion::prelude::*;

/// Forwards to the system allocator, counting every allocation and
/// reallocation (deallocations are free to happen — the property under test
/// is "no new memory is requested").
struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread.  Per-thread, so the test
    /// harness starting the next test's thread mid-measurement cannot leak
    /// its own allocations into the count.  A `const` initializer without a
    /// destructor never allocates, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers entirely to `System`; the counter update has no other
// side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Tests in this binary still run one at a time — each takes this lock for
/// its whole body — so neither measures while the other warms up.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A pair of interacting counters giving a 27-state `⊤` whose descent
/// exercises multi-round closure fixpoints.
fn workload() -> (ReachableProduct, Vec<Partition>) {
    let machines: Vec<Dfsm> = (0..3)
        .map(|i| {
            let mut b = DfsmBuilder::new(format!("C{i}"));
            for s in 0..3 {
                b.add_state(format!("c{i}s{s}"));
            }
            b.set_initial(format!("c{i}s0"));
            for s in 0..3 {
                b.add_transition(
                    format!("c{i}s{s}"),
                    format!("e{i}"),
                    format!("c{i}s{}", (s + 1) % 3),
                );
            }
            for j in 0..3 {
                if j != i {
                    b.add_self_loops(format!("e{j}"));
                }
            }
            b.build().unwrap()
        })
        .collect();
    let product = ReachableProduct::new(&machines).unwrap();
    let originals = fsm_fusion::fusion::projection_partitions(&product);
    (product, originals)
}

#[test]
fn close_merged_into_is_allocation_free_after_warm_up() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (product, originals) = workload();
    let top = product.top();
    let n = top.size();
    let kernel = ClosureKernel::new(top);
    let graph = FaultGraph::from_partitions(n, &originals);
    let weakest = graph.weakest_edges();
    assert!(!weakest.is_empty());

    let mut scratch = CloseScratch::new();
    let mut out = Partition::singletons(0);
    let current = Partition::singletons(n);

    // Warm-up: one full pass over every candidate pair grows the scratch
    // and output buffers to their steady-state sizes.
    let run_pass = |scratch: &mut CloseScratch, out: &mut Partition| {
        let mut covering = 0usize;
        for b1 in 0..n {
            for b2 in (b1 + 1)..n {
                kernel
                    .close_merged_into(scratch, &current, b1, b2, out)
                    .unwrap();
                if FaultGraph::covers_all(out, &weakest) {
                    covering += 1;
                }
            }
        }
        covering
    };
    let covering_warm = run_pass(&mut scratch, &mut out);

    // Steady state: the exact same candidate sweep must not allocate.
    let before = allocations();
    let covering_cold = run_pass(&mut scratch, &mut out);
    let after = allocations();
    assert_eq!(covering_warm, covering_cold);
    assert_eq!(
        after - before,
        0,
        "close_merged_into allocated in its steady state"
    );

    // The scratch result still matches the one-shot allocating API.
    for (b1, b2) in [(0usize, 1usize), (2, 5), (7, 11)] {
        kernel
            .close_merged_into(&mut scratch, &current, b1, b2, &mut out)
            .unwrap();
        assert_eq!(out, kernel.close_merged(&current, b1, b2).unwrap());
    }
}

#[test]
fn scratch_descent_from_a_coarser_partition_stays_allocation_free() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The descent does not only close singleton merges: re-run the sweep
    // from a coarser closed partition (fewer, larger blocks), which
    // exercises the first_of_block reuse across shrinking block counts.
    let (product, _originals) = workload();
    let top = product.top();
    let kernel = ClosureKernel::new(top);
    let mut scratch = CloseScratch::new();
    let mut out = Partition::singletons(0);
    // A closed coarsening to start from (close of one merge of ⊤).
    let start = kernel
        .close_merged(&Partition::singletons(top.size()), 0, 1)
        .unwrap();
    let k = start.num_blocks();
    assert!(k < top.size());
    // Warm up at this block count, then assert the steady state.
    for b1 in 0..k {
        for b2 in (b1 + 1)..k {
            kernel
                .close_merged_into(&mut scratch, &start, b1, b2, &mut out)
                .unwrap();
        }
    }
    let before = allocations();
    for b1 in 0..k {
        for b2 in (b1 + 1)..k {
            kernel
                .close_merged_into(&mut scratch, &start, b1, b2, &mut out)
                .unwrap();
        }
    }
    assert_eq!(allocations() - before, 0);
}

#[test]
fn quotient_merge_sweep_is_allocation_free_after_warm_up() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (product, originals) = workload();
    let top = product.top();
    let n = top.size();
    let kernel = ClosureKernel::new(top);
    let weakest = FaultGraph::from_partitions(n, &originals).weakest_edges();
    // ⊤ itself and a closed coarsening of it, so the sweep sees both the
    // first level of a descent and a later one with fewer blocks.
    let coarser = kernel
        .close_merged(&Partition::singletons(n), 0, 1)
        .unwrap();
    let mut scratch = CloseScratch::new();
    let mut out = Partition::singletons(0);
    for current in [Partition::singletons(n), coarser] {
        // The descent's levels always separate the weakest edges.
        let edges: Vec<(usize, usize)> = weakest
            .iter()
            .copied()
            .filter(|&(i, j)| current.separates(i, j))
            .collect();
        // One level build plus a verdict for every block pair, lifting each
        // completed closure the way the descent lifts the one it keeps.
        let sweep = |scratch: &mut CloseScratch, out: &mut Partition| {
            let mut level = kernel.quotient_level(scratch, &current, &edges).unwrap();
            let k = level.num_blocks();
            let mut verdicts = [0usize; 3];
            for b1 in 0..k {
                for b2 in (b1 + 1)..k {
                    let outcome = level.merge(b1, b2);
                    verdicts[outcome as usize] += 1;
                    if outcome.completed() {
                        level.lift_into(out);
                    }
                }
            }
            verdicts
        };
        let warm = sweep(&mut scratch, &mut out);
        assert!(warm[QuotientMerge::Aborted as usize] > 0, "{warm:?}");
        assert!(warm[QuotientMerge::Covers as usize] > 0, "{warm:?}");

        let before = allocations();
        let steady = sweep(&mut scratch, &mut out);
        let after = allocations();
        assert_eq!(warm, steady);
        assert_eq!(
            after - before,
            0,
            "quotient scoring allocated in its steady state at k = {}",
            current.num_blocks()
        );
    }
}

#[test]
fn descent_and_memo_sweep_are_allocation_free_after_warm_up() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (product, originals) = workload();
    let top = product.top();
    let n = top.size();
    let kernel = ClosureKernel::new(top);
    let weakest = FaultGraph::from_partitions(n, &originals).weakest_edges();
    let top_blocks = Partition::singletons(n);
    let mut scratch = CloseScratch::new();
    let mut out = Partition::singletons(0);
    // Algorithm 2's descent from ⊤: every level sweeps its pairs until one
    // covers, descends to it, and the last level — where every merge
    // fails and is remembered — is lifted once.  Level sizes go into a
    // caller-owned vector, so the measured run allocates nothing itself.
    let descent = |scratch: &mut CloseScratch, out: &mut Partition, sizes: &mut Vec<usize>| {
        let mut level = kernel
            .quotient_level(scratch, &top_blocks, &weakest)
            .unwrap();
        let mut verdicts = [0usize; 3];
        'descend: loop {
            let k = level.num_blocks();
            sizes.push(k);
            for b1 in 0..k {
                for b2 in (b1 + 1)..k {
                    let outcome = level.merge(b1, b2);
                    verdicts[outcome as usize] += 1;
                    if outcome.covers() {
                        level.descend();
                        continue 'descend;
                    }
                }
            }
            break;
        }
        level.lift_level_into(out);
        verdicts
    };
    let mut warm_sizes = Vec::new();
    let warm = descent(&mut scratch, &mut out, &mut warm_sizes);
    let kept = out.clone();
    assert!(
        warm_sizes.len() > 1,
        "{warm_sizes:?}: the descent never descended"
    );
    assert!(warm[QuotientMerge::Aborted as usize] > 0, "{warm:?}");

    let mut sizes = Vec::with_capacity(warm_sizes.len());
    let before = allocations();
    let steady = descent(&mut scratch, &mut out, &mut sizes);
    let after = allocations();
    assert_eq!((warm, &warm_sizes), (steady, &sizes));
    assert_eq!(out, kept);
    assert_eq!(
        after - before,
        0,
        "the descent allocated in its steady state over levels {sizes:?}"
    );
}
