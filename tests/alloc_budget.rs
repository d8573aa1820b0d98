//! Allocation budgets of the per-node structures on the paper workload
//! (`GenConfig::paper()`): the parse tree, the sequential evaluation and
//! the root `code` rope. Each is a count that regresses silently — a
//! per-node `Vec` or a one-leaf-per-line rope still produces the right
//! asm — so this binary pins them with a counting global allocator.
//!
//! The test binary holds this one test so that nothing else allocates
//! on its thread while it measures; counts are per thread anyway.

use paragram::core::eval::static_eval;
use paragram::pascal::generator::{generate, GenConfig};
use paragram::pascal::{agtree, parser, Compiler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting allocations (fresh blocks and
/// reallocations) made by the current thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bounds, each the value measured when it was set plus a margin.
/// `build_tree` measured 0.35 allocations per node (a node-per-
/// allocation tree made 5.23); `static_eval` 4.07 per node (6.30 with
/// one-leaf-per-line ropes and allocated empty error lists); the root
/// `code` rope's leaves averaged 309 bytes (one leaf per line: 21).
const BUILD_TREE_ALLOCS_PER_NODE: f64 = 0.5;
const STATIC_EVAL_ALLOCS_PER_NODE: f64 = 4.5;
const MIN_MEAN_CODE_LEAF_BYTES: f64 = 250.0;

#[test]
fn paper_workload_stays_within_its_allocation_budgets() {
    let compiler = Compiler::new();
    let src = generate(&GenConfig::paper());
    let ast = parser::parse(&src).expect("generated program parses");

    let before = allocations();
    let tree = agtree::build_tree(&compiler.pg, &ast).expect("tree builds");
    let build = allocations() - before;
    let nodes = tree.len() as f64;

    let plans = compiler
        .evals
        .plans()
        .expect("the Pascal grammar is ordered");
    let before = allocations();
    let (store, _) = static_eval(&tree, plans).expect("static evaluation succeeds");
    let eval = allocations() - before;

    let code = store
        .get(tree.root(), compiler.pg.s_code)
        .expect("root code")
        .code();
    let mean_leaf = code.len() as f64 / code.leaf_count() as f64;

    let (build_per_node, eval_per_node) = (build as f64 / nodes, eval as f64 / nodes);
    eprintln!(
        "{nodes} nodes: build_tree {build_per_node:.2} allocs/node, static_eval \
         {eval_per_node:.2} allocs/node, root code {} bytes in {} leaves ({mean_leaf:.0} B/leaf)",
        code.len(),
        code.leaf_count(),
    );
    assert!(
        build_per_node <= BUILD_TREE_ALLOCS_PER_NODE,
        "build_tree: {build_per_node:.2} allocations per node"
    );
    assert!(
        eval_per_node <= STATIC_EVAL_ALLOCS_PER_NODE,
        "static_eval: {eval_per_node:.2} allocations per node"
    );
    assert!(
        mean_leaf >= MIN_MEAN_CODE_LEAF_BYTES,
        "root code rope: {mean_leaf:.0} bytes per leaf"
    );
}
