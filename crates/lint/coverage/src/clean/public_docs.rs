//! BX006: every public item documented; crate-internal items say so.

/// A documented struct.
pub struct Documented {
    /// A documented field.
    pub field: u32,
}

/// Adds one.
pub fn documented(x: u32) -> u32 {
    x + 1
}

mod hidden {
    pub(crate) fn private_needs_no_docs(x: u32) -> u32 {
        x
    }
}
