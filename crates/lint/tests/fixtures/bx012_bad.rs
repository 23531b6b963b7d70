//! BX012 bad: `Result`s carrying an I/O error type are swallowed — through
//! a wrapper, so only the transitive analysis can see them, or straight
//! from a named pager entry point into an ignoring match arm.

/// The pager's typed error.
pub struct PagerError;

fn raw() -> Result<(), PagerError> {
    Ok(())
}

// Transitive producer: returns a Result and `?`-propagates an I/O Result.
fn wraps() -> Result<(), PagerError> {
    raw()?;
    Ok(())
}

/// Wildcard-dropped.
pub fn drops() {
    let _ = wraps();
}

/// Discarded as a bare statement.
pub fn bare() {
    wraps();
}

/// `.ok()`-silenced.
pub fn silenced() {
    wraps().ok();
}

/// Matched with an ignoring error arm.
pub fn ignored() {
    match wraps() {
        Ok(v) => keep(v),
        Err(_) => {}
    }
}

/// The accounted pager surface.
pub struct Pager;

impl Pager {
    /// A fallible block write.
    pub fn try_write(&self, _id: u64, _data: &[u8]) -> Result<(), PagerError> {
        Ok(())
    }
}

/// A pager write matched with an ignoring error arm: no lint sees this.
pub fn ignored_write(p: &Pager) {
    match p.try_write(7, &[0u8; 8]) {
        Ok(()) => keep(()),
        Err(_) => {}
    }
}

/// Propagation is fine.
pub fn fine() -> Result<(), PagerError> {
    wraps()?;
    Ok(())
}
