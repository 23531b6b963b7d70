//! BX008: every pager I/O `Result` is consumed — propagated with `?`,
//! branched on, or bound to a live name.

use boxes_pager::{BlockId, Pager, PagerError, SharedPager};

fn handle_faults(pager: &SharedPager, id: BlockId) -> Result<Option<Box<[u8]>>, PagerError> {
    pager.try_write(id, &[0u8; 64])?;
    let healthy = pager.try_resume().is_ok();
    let kept = pager.try_read(id).ok();
    match Pager::open_file("labels.bin", 64) {
        Ok(reopened) => drop(reopened),
        Err(_) if healthy => return Ok(None),
        Err(_) => {}
    }
    Ok(kept)
}
