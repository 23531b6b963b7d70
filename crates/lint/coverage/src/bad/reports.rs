//! BX005: an audit report and an I/O stats snapshot dropped on the floor.

use boxes_audit::Auditable;
use boxes_pager::SharedPager;

fn driver(tree: &dyn Auditable, pager: &SharedPager) {
    #[expect(unused_must_use, reason = "BX005 bad fixture")]
    tree.audit();
    #[expect(unused_must_use, reason = "BX005 bad fixture")]
    pager.stats();
}
