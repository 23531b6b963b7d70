//! BX002: persistence goes through the pager, which owns the accounted
//! disk traffic.

use boxes_pager::{BlockId, PagerError, SharedPager};

fn persist(pager: &SharedPager, id: BlockId, data: &[u8]) -> Result<(), PagerError> {
    pager.try_write(id, data)
}
