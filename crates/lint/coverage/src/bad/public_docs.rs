//! BX006: undocumented public items, and a `pub` item nothing outside the
//! crate can reach (so `missing_docs` would never see it).

#[expect(missing_docs, reason = "BX006 bad fixture")]
pub struct Opaque {
    /// Documented field next to an undocumented one.
    pub fine: u32,
    #[expect(missing_docs, reason = "BX006 bad fixture")]
    pub mystery: u32,
}

mod hidden {
    #[expect(unreachable_pub, reason = "BX006 bad fixture")]
    pub fn what_does_this_do(x: u32) -> u32 {
        x + 1
    }
}
