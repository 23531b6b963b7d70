//! BX013: overlapping `RefCell` borrow windows. The pattern cannot be
//! written any more: the cell type itself is banned, so the fields are
//! the findings.

struct Frames {
    #[expect(clippy::disallowed_types, reason = "BX013 bad fixture")]
    table: std::cell::RefCell<Vec<u8>>,
    #[expect(clippy::disallowed_types, reason = "BX013 bad fixture")]
    other: std::cell::RefCell<Vec<u8>>,
}

impl Frames {
    fn clash(&self) -> usize {
        let guard = self.table.borrow_mut();
        let len = self.table.borrow().len();
        drop(guard);
        len
    }
}
