//! The default router holds a window of XRLs, not a table of them.
//!
//! With no option set and one XRL per route (batch 1, the paper's §8.2
//! configuration), announcing and then withdrawing 20,000 routes must keep
//! the outstanding-request maps on both hops at the Xoff watermark, shed
//! nothing, remember no dedup identity (nothing here can retransmit), park
//! the backlog in the fanout queue instead — and give that buffer back
//! once it drains.

use std::time::Duration;

use xorp_harness::figures::{counter_value, gauge_max, gauge_value};
use xorp_harness::{backbone_table, MultiProcessRouter, RouterOptions, WorkloadConfig};
use xorp_xrl::QueuePolicy;

const ROUTES: usize = 20_000;
const TIMEOUT: Duration = Duration::from_secs(120);

#[test]
fn default_router_holds_a_window_of_xrls_not_a_table() {
    let router = MultiProcessRouter::new(RouterOptions::default());
    assert!(router.wait_for(TIMEOUT, || router.fea_route_count() == 1));
    let table = backbone_table(&WorkloadConfig {
        routes: ROUTES,
        ..Default::default()
    });

    // BGP takes each UPDATE in one event, so an UPDATE four times the
    // 512-XRL window leaves at least three windows waiting in the fanout
    // however fast the RIB drains.  With 64-route UPDATEs the backlog
    // depended on the BGP thread outrunning the RIB's.
    for batch in table.chunks(2048) {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(TIMEOUT, || router.fea_route_count() == ROUTES + 1),
        "announce half: fea={} rib={} bgp={}",
        router.fea_route_count(),
        router.rib_route_count(),
        router.bgp_route_count(),
    );
    assert_eq!(router.rib_route_count(), ROUTES + 1);
    // 20,000 routes are ~40 windows: the excess waited in the fanout.
    let high_watermark = QueuePolicy::default().high_watermark;
    assert!(gauge_max(&router, "bgp.fanout.queue_len") > high_watermark);

    for batch in table.chunks(64) {
        router.withdraw_backbone(1, batch);
    }
    assert!(
        router.wait_for(TIMEOUT, || router.fea_route_count() == 1
            && gauge_value(&router, "bgp.fanout.queue_len") == 0),
        "withdraw half: fea={} rib={} bgp={}",
        router.fea_route_count(),
        router.rib_route_count(),
        router.bgp_route_count(),
    );
    assert_eq!(router.rib_route_count(), 1);
    assert_eq!(router.bgp_route_count(), 0);

    for process in ["bgp", "rib"] {
        let peak = gauge_max(&router, &format!("{process}.xrl.pending"));
        assert!(
            peak <= high_watermark + 8,
            "{process}: {peak} XRLs outstanding at peak, watermark {high_watermark}"
        );
    }
    for process in ["bgp", "rib", "fea"] {
        assert_eq!(
            counter_value(&router, &format!("{process}.xrl.shed_total")),
            0
        );
        assert_eq!(
            gauge_max(&router, &format!("{process}.xrl.dedup_entries")),
            0,
            "{process} kept dedup identities for requests that cannot recur"
        );
    }
    assert_eq!(gauge_value(&router, "bgp.fanout.queue_len"), 0);
    let held = router.bgp_fanout_memory_bytes();
    assert!(
        held <= 64 * 1024,
        "the fanout holds {held} bytes after its backlog drained"
    );
    router.stop();
}
