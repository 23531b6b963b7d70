//! BX008: pager I/O `Result`s silenced instead of handled. Each discard
//! throws away the only signal that the disk is failing or that the store
//! has entered degraded mode.

use boxes_pager::{BlockId, Pager, SharedPager};

fn silence_faults(pager: &SharedPager, id: BlockId) {
    #[expect(clippy::let_underscore_must_use, reason = "BX008 bad fixture")]
    let _ = pager.try_write(id, &[0u8; 64]);
    #[expect(unused_must_use, reason = "BX008 bad fixture")]
    pager.try_resume();
    #[expect(clippy::unused_result_ok, reason = "BX008 bad fixture")]
    pager.try_read(id).ok();
    #[expect(clippy::let_underscore_must_use, reason = "BX008 bad fixture")]
    let _ = Pager::open_file("labels.bin", 64);
    #[expect(clippy::unused_result_ok, reason = "BX008 bad fixture")]
    pager.try_write(id, &[1u8; 64]).ok();
}
