//! BX009: every span is bound to a named local (underscore-prefixed is
//! fine — the binding still lives to the end of the scope), returned, or
//! passed onward, so its window covers the work it labels.

use boxes_pager::SharedPager;
use boxes_trace::OpSpan;

fn observed_insert(pager: &SharedPager) {
    let _span = OpSpan::op(pager, "W-BOX", "insert");
    {
        let _phase = OpSpan::phase(pager, "split");
    }
}

fn handed_to_caller(pager: &SharedPager) -> OpSpan {
    OpSpan::op(pager, "B-BOX", "bulk_load")
}

fn stored_in_guard(pager: &SharedPager, keeper: &mut Vec<OpSpan>) {
    keeper.push(OpSpan::phase(pager, "relabel"));
}
