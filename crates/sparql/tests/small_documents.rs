//! What a small SELECT document costs the allocator.
//!
//! A bound-subject lookup answers one or two rows, and its JSON document
//! is written once per request: the row walker must not make such a
//! document dearer than a writer that renders every cell does. Its
//! fragment table waits for a second row, and the column names it copies
//! are kept as spans of the document, not as strings of their own.

use rdfmesh_rdf::{Term, Variable};
use rdfmesh_sparql::{to_json, QueryResult, Rows};

/// Counts this thread's allocator calls (`alloc` and `realloc`).
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    pub struct CountingAlloc;

    thread_local! {
        static CALLS: Cell<usize> = const { Cell::new(0) };
    }

    fn count() {
        // `try_with`: the allocator outlives a dying thread's locals.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }

    // SAFETY: every request is handed to `System` unchanged; the only
    // addition is a thread-local integer with no destructor and no
    // allocation of its own, so it cannot re-enter the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller's contract, passed through.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's contract, passed through.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new: usize) -> *mut u8 {
            count();
            // SAFETY: the caller's contract, passed through.
            unsafe { System.realloc(ptr, layout, new) }
        }
    }

    /// Runs `f`, returning its result and the allocator calls it made on
    /// this thread.
    pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let calls = CALLS.with(Cell::get);
        let out = f();
        (out, CALLS.with(Cell::get) - calls)
    }
}

#[global_allocator]
static GLOBAL: counting::CountingAlloc = counting::CountingAlloc;

/// `rows` answers of a two-hop lookup: `?a ?d`, an advisor and a
/// department, IRIs as the benchmark's corpus names them.
fn lookup(rows: usize) -> QueryResult {
    let (a, d) = (Variable::new("a"), Variable::new("d"));
    let mut batch = Rows::with_vars(vec![a.clone(), d.clone()]);
    for i in 0..rows {
        let advisor = Term::iri(&format!("http://example.org/univ/dept3/professor{i}"));
        let department = Term::iri(&format!("http://example.org/univ/dept{i}"));
        batch.push_bindings([(&a, &advisor), (&d, &department)]);
    }
    QueryResult::Solutions(batch.into())
}

/// The allocator calls `to_json` makes on `result`, and its document.
fn json_calls(result: &QueryResult) -> (String, usize) {
    counting::allocations(|| to_json(result))
}

#[test]
fn a_one_row_document_asks_the_allocator_at_most_seven_times() {
    let (doc, calls) = json_calls(&lookup(1));
    assert!(doc.contains("\"a\":{\"type\":\"uri\",\"value\":\"http://example.org/univ/dept3/professor0\"}"));
    // The columns in name order, the header's name spans, and the
    // document as it grows (five). The writer that rendered every cell
    // asked eight times: a header list and its seen-flags in place of the
    // spans.
    assert!(calls <= 7, "{calls} allocator calls");
}

#[test]
fn a_two_row_document_asks_the_allocator_at_most_nine_times() {
    let (doc, calls) = json_calls(&lookup(2));
    assert_eq!(doc.matches("\"type\":\"uri\"").count(), 4);
    // The one-row document's seven, the fragment table, and the
    // document's reservation for the second row. The writer that rendered
    // every cell asked nine times.
    assert!(calls <= 9, "{calls} allocator calls");
}
