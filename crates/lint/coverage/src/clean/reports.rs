//! BX005: the report and the stats are consumed.

use boxes_audit::Auditable;
use boxes_pager::SharedPager;

fn driver(tree: &dyn Auditable, pager: &SharedPager) -> (bool, u64) {
    let report = tree.audit();
    let stats = pager.stats();
    (report.is_clean(), stats.reads)
}
