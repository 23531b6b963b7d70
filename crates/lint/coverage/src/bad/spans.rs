//! BX009: trace spans dropped on construction or leaked. A dropped span
//! covers nothing; a forgotten span never closes.

use boxes_pager::SharedPager;
use boxes_trace::OpSpan;

fn broken_observability(pager: &SharedPager) {
    #[expect(unused_must_use, reason = "BX009 bad fixture")]
    OpSpan::op(pager, "W-BOX", "insert");
    #[expect(clippy::let_underscore_must_use, reason = "BX009 bad fixture")]
    let _ = OpSpan::phase(pager, "split");
    let span = OpSpan::op(pager, "W-BOX", "delete");
    #[expect(clippy::mem_forget, reason = "BX009 bad fixture")]
    std::mem::forget(span);
}
