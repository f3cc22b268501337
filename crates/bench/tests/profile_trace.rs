//! Golden-shape tests for the profiler's Chrome trace export: the document
//! must parse, every Begin must balance an End on the same thread in stack
//! order, timestamps must be monotone per thread, and the expected pipeline
//! phases must all appear. The trace collector is process-global, so tests
//! that install one serialize through a mutex.

use sdlo_bench::profile::{chrome_trace, profile_builtin, ProfileOptions};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

static COLLECTOR_GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    COLLECTOR_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small() -> ProfileOptions {
    ProfileOptions {
        bound: 16,
        tile: 4,
        cache: 512,
    }
}

#[test]
fn chrome_trace_is_well_formed_and_covers_the_pipeline() {
    let _g = gate();
    let report = profile_builtin("two_index_tiled", &small()).expect("alias resolves");
    assert_eq!(report.program, "tiled_two_index");
    let evaluator = report
        .evaluator
        .as_ref()
        .expect("tiled builtin times the search evaluator");
    assert!(evaluator.identical, "the tape must match the tree walk");
    assert_eq!(evaluator.points, 3usize.pow(4)); // tiles 4, 8, 16 per dim
    let doc = chrome_trace(std::slice::from_ref(&report));
    let v = sdlo_wire::parse(&doc).expect("trace JSON parses");
    let events = v
        .get("traceEvents")
        .expect("traceEvents field")
        .as_array()
        .expect("traceEvents is an array");
    assert!(!events.is_empty());

    // Balanced B/E per thread with stack discipline, monotone timestamps.
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<i64, i64> = BTreeMap::new();
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        let name = e.get("name").unwrap().as_str().unwrap().to_string();
        let tid = e.get("tid").unwrap().as_i64().unwrap();
        let ts = e.get("ts").unwrap().as_i64().unwrap();
        assert_eq!(e.get("pid").unwrap().as_i64(), Some(1));
        let prev = last_ts.entry(tid).or_insert(ts);
        assert!(
            ts >= *prev,
            "timestamps regress on tid {tid}: {ts} < {prev}"
        );
        *prev = ts;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.clone()),
            "E" => {
                let top = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E without matching B for {name}"));
                assert_eq!(top, name, "spans must close innermost-first");
            }
            other => panic!("unexpected phase {other}"),
        }
        names.insert(name);
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    for expected in [
        "profile.run",
        "model.build",
        "model.partition",
        "model.stack_distance",
        "tilesearch.pruned",
        "cachesim.replay",
    ] {
        assert!(names.contains(expected), "missing span {expected}");
    }
}

#[test]
fn phase_summary_counts_partition_cells() {
    let _g = gate();
    let report = profile_builtin("matmul", &small()).expect("builtin");
    let partition = report
        .phases
        .iter()
        .find(|p| p.name == "model.partition")
        .expect("partition phase recorded");
    assert_eq!(partition.calls, 1);
    assert!(partition.counters["cells"] > 0);
    // matmul is untiled: no tile symbols, so no tile-search span and no
    // evaluator measurement.
    assert!(!report
        .phases
        .iter()
        .any(|p| p.name.starts_with("tilesearch")));
    assert!(report.evaluator.is_none());
}

#[test]
fn uninstalled_collector_records_nothing() {
    let _g = gate();
    let collector = sdlo_trace::MemoryCollector::new();
    sdlo_trace::install(collector.clone());
    sdlo_trace::uninstall();
    // Work done while no collector is installed must not reach the old one,
    // and the span path must stay inert.
    assert!(!sdlo_trace::enabled());
    let model = sdlo_core::MissModel::build(&sdlo_ir::programs::matmul());
    assert!(!model.components().is_empty());
    assert!(collector.is_empty());
}
