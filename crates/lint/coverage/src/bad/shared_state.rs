//! BX011 and BX018: interior-mutability and shared-ownership state that
//! the `Send + Sync` storage core cannot hold.

/// A cache full of thread-hostile state.
struct Cache {
    #[expect(clippy::disallowed_types, reason = "BX018 bad fixture")]
    slots: std::cell::RefCell<Vec<u8>>,
    #[expect(clippy::disallowed_types, reason = "BX018 bad fixture")]
    hits: std::cell::Cell<u64>,
    #[expect(clippy::disallowed_types, reason = "BX018 bad fixture")]
    shared: std::rc::Rc<Vec<u8>>,
}

// No lint needed: under `forbid(unsafe_code)` a `static mut` can be
// declared but never read or written.
static mut GLOBAL: u64 = 0;

// clippy reports a disallowed item-position macro at the crate root, so
// this site's `#[expect(clippy::disallowed_macros)]` sits on lib.rs.
std::thread_local! {
    static LOCAL: u8 = const { 0 };
}
