//! The replica must do the engine's evaluate work: request by request,
//! it simulates the configs the engine simulates and builds the topology
//! classes the engine builds, with its class map carried across requests
//! as the engine's class cache is.

use bfpp_exec::ClassCache;
use bfpp_planner::wire::{parse_line, Request};
use bfpp_planner::Planner;
use perfbench::replica::Replica;
use perfbench::requests::Cell;
use perfbench::spans::Tracer;

#[test]
fn replica_simulates_and_builds_what_the_engine_does() {
    ClassCache::global().clear();
    let planner = Planner::new();
    let tracer = Tracer::new();
    let mut replica = Replica::new(&tracer);
    for cell in Cell::panel().iter().step_by(5) {
        let line = cell.straggler_line(3);
        let req = match parse_line(&line, "line") {
            Ok(Request::Plan { req, .. }) => *req,
            other => panic!("{line}: {other:?}"),
        };
        let before = planner.metrics_snapshot();
        planner.plan(&req);
        let after = planner.metrics_snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);

        let calls = replica.calls.clone();
        replica.search(&req);
        assert_eq!(
            replica.calls.simulated - calls.simulated,
            delta("search_candidates_simulated_total"),
            "{line}"
        );
        assert_eq!(
            replica.calls.class_builds - calls.class_builds,
            delta("class_cache_misses_total"),
            "{line}"
        );
    }
    assert!(replica.calls.class_builds > 0 && replica.calls.replays > 0);
}
