//! A reserved keyword is one symbol per process: making its atom clones
//! it, counted per thread by this binary's own global allocator (libtest
//! runs the tests on parallel threads, so a process-wide count would
//! see the other test's allocations). No clock.

use ginflow_hocl::symbol::keywords as kw;
use ginflow_hocl::Atom;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations (a `realloc` is one: the
/// default forwards it to `alloc`).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a const-initialised thread-local without a destructor,
// which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Where a symbol atom's spelling lives: the same place for one symbol.
fn spelling(atom: &Atom) -> *const u8 {
    atom.as_sym().expect("a symbol atom").as_str().as_ptr()
}

#[test]
fn a_keyword_atom_made_twice_is_one_symbol_and_allocates_nothing() {
    // The first keyword ever made builds the table of all of them.
    let warm = Atom::sym(kw::DST);
    let before = allocations();
    let (a, b) = (Atom::sym(kw::SRC), Atom::sym(kw::SRC));
    assert_eq!(allocations() - before, 0);
    assert_eq!(spelling(&a), spelling(&b));
    assert_ne!(spelling(&a), spelling(&warm));
    // Any other name is a symbol, and an allocation, of its own.
    let before = allocations();
    let (t, u) = (Atom::sym("T1"), Atom::sym("T1"));
    assert_eq!(allocations() - before, 2);
    assert_ne!(spelling(&t), spelling(&u));
    assert_eq!(t, u);
}

#[test]
fn a_keyword_keeps_its_spelling_its_equality_and_its_size() {
    use ginflow_hocl::Symbol;
    let src = Symbol::new(kw::SRC);
    assert_eq!(src, Symbol::from(String::from("SRC")));
    assert_ne!(src, Symbol::new(kw::SRV));
    assert_ne!(src, Symbol::new("SRCX"));
    let back: Symbol = serde_json::from_str("\"SRC\"").unwrap();
    assert_eq!(back.as_str().as_ptr(), src.as_str().as_ptr());
    assert_eq!(serde_json::to_string(&src).unwrap(), "\"SRC\"");
    // A keyword costs a symbol no space.
    assert_eq!(
        std::mem::size_of::<Symbol>(),
        std::mem::size_of::<std::sync::Arc<str>>()
    );
}
