//! BX004: truncating `as` casts to integer types.

fn truncates(slots: u64, count: usize) -> (usize, u16) {
    #[expect(clippy::as_conversions, reason = "BX004 bad fixture")]
    let index = slots as usize;
    #[expect(clippy::as_conversions, reason = "BX004 bad fixture")]
    let on_disk = count as u16;
    (index, on_disk)
}
