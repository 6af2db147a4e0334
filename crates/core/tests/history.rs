//! Query-history and critical-path determinism: the history records a
//! submission appends and the critical path computed over its trace are
//! simulated-clock state, so both must be bit-identical between the
//! sequential and parallel executors, across executor kernel partition
//! counts (1/2/8), and across transport chunk sizes (1/4096/unbounded).
//! The process-global query id is the one field comparisons normalize,
//! exactly as the trace/telemetry tests do.

use std::sync::Arc;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_obs::{critical_path, Telemetry};

fn setup() -> (Cluster, GlobalCatalog, Arc<Telemetry>) {
    let (mut cluster, mut catalog) = scenario::build(ScenarioConfig::default()).unwrap();
    let telemetry = Telemetry::new_handle();
    cluster.set_telemetry(Arc::clone(&telemetry));
    catalog.set_telemetry(Arc::clone(&telemetry));
    (cluster, catalog, telemetry)
}

/// Replace every decimal run after `xdb_q` / `"query":` / `"query_id":`
/// with `N` so runs with different global query ids compare equal.
fn normalize_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        out.push(bytes[i] as char);
        let here = &s[..=i];
        if here.ends_with("xdb_q")
            || here.ends_with("\"query\":")
            || here.ends_with("\"query_id\":")
        {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 {
                out.push('N');
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// One submission with the history sink on; returns the full observable
/// fingerprint: history records (JSON lines), the critical path (steps +
/// rendered attribution), and the deterministic telemetry snapshot.
fn run(chunk: usize, parallel: bool, partitions: usize) -> String {
    let (cluster, catalog, telemetry) = setup();
    cluster.set_exec_partitions(partitions);
    telemetry.history.enable_memory();
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        parallel_execution: parallel,
        stream_chunk_rows: chunk,
        ..Default::default()
    });
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let crit = critical_path(&outcome.trace).expect("critical path");
    // The attribution tiles the end-to-end window exactly (integer-ns
    // telescoping), at every setting.
    assert_eq!(crit.attributed_ns(), crit.total_ns);
    let mut fp = telemetry.history.to_jsonl();
    for step in &crit.steps {
        fp.push_str(&format!("{step:?}\n"));
    }
    fp.push_str(&crit.render());
    fp.push_str(&telemetry.metrics.deterministic_snapshot().render());
    normalize_ids(&fp)
}

fn run_comparable_pair(a: (usize, bool, usize), b: (usize, bool, usize)) -> (String, String) {
    (run(a.0, a.1, a.2), run(b.0, b.1, b.2))
}

#[test]
fn history_identical_sequential_vs_parallel() {
    for chunk in [1usize, 4096, 0] {
        let (seq, par) = run_comparable_pair((chunk, false, 1), (chunk, true, 1));
        assert_eq!(seq, par, "chunk {chunk} diverges across executors");
    }
}

#[test]
fn history_identical_across_partitions_and_chunks() {
    // The `exec.partitions` gauge reports the *configured* partition
    // count, so it legitimately differs across settings — everything
    // else (history records, critical path, deterministic metrics) must
    // not.
    let strip_config = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("exec.partitions"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (reference, other) = run_comparable_pair((0, true, 1), (1, true, 2));
    assert_eq!(strip_config(&reference), strip_config(&other));
    let (reference, other) = run_comparable_pair((4096, true, 1), (4096, true, 8));
    assert_eq!(strip_config(&reference), strip_config(&other));
}

#[test]
fn history_record_carries_fingerprint_and_edges() {
    let (cluster, catalog, telemetry) = setup();
    telemetry.history.enable_memory();
    telemetry.history.set_label("example");
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let records = telemetry.history.records();
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert_eq!(r.schema_version, xdb_obs::HISTORY_SCHEMA_VERSION);
    assert_eq!(r.label, "example");
    assert_eq!(r.query_id, outcome.query_id);
    assert_eq!(r.fingerprint.len(), 16);
    assert_eq!(r.sql_fnv.len(), 16);
    assert!((r.total_ms - outcome.breakdown.total_ms()).abs() < 1e-9);
    assert_eq!(r.phases.len(), 4);
    assert!(r.crit_spans >= 2);
    assert!(!r.critical.is_empty());
    // Wire observations cover the run's ledger records, including the
    // per-codec split on encoded edges.
    assert!(!r.edges.is_empty());
    assert!(r.edges.iter().any(|e| !e.codecs.is_empty()));
    assert!(r.edges.iter().all(|e| e.encoded_bytes <= e.bytes));
    // Per-engine statement work was projected out of the trace counters.
    assert!(!r.statements.is_empty());
    assert!(r.statements.iter().all(|(_, ms)| *ms >= 0.0));
    // Resubmitting the same SQL yields the same fingerprint (stable plan).
    telemetry.history.set_label("");
    xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let records = telemetry.history.records();
    assert_eq!(records.len(), 2);
    assert_eq!(records[1].fingerprint, r.fingerprint);
    assert_eq!(records[1].sql_fnv, r.sql_fnv);
    assert_eq!(records[1].label, "");
}

#[test]
fn report_appends_critical_path() {
    let (cluster, catalog, _telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let report = outcome.report();
    assert!(report.contains("critical path:"), "{report}");
    assert!(report.contains("% "), "{report}");
}

#[test]
fn slow_query_log_carries_attribution() {
    let (cluster, catalog, telemetry) = setup();
    // Threshold 0: everything is slow.
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        slow_query_ms: Some(0.0),
        ..Default::default()
    });
    xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let events = telemetry.events.snapshot();
    let slow = events
        .iter()
        .find(|e| e.message == "slow query")
        .expect("slow-query event");
    assert_eq!(slow.level, xdb_obs::Level::Warn);
    assert!(slow.fields.iter().any(|(k, _)| k == "crit_spans"));
    let dominant = slow
        .fields
        .iter()
        .find(|(k, _)| k == "dominant")
        .expect("dominant attribution");
    assert!(dominant.1.contains('%'), "{dominant:?}");
    // Above-threshold queries stay quiet.
    let (cluster, catalog, telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        slow_query_ms: Some(1e12),
        ..Default::default()
    });
    xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    assert!(telemetry
        .events
        .snapshot()
        .iter()
        .all(|e| e.message != "slow query"));
}

#[test]
fn log_level_filter_does_not_perturb_deterministic_snapshot() {
    let run_at = |level: xdb_obs::Level| {
        let (cluster, catalog, telemetry) = setup();
        telemetry.events.set_min_level(level);
        let xdb = Xdb::new(&cluster, &catalog);
        xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        (
            normalize_ids(&telemetry.metrics.deterministic_snapshot().render()),
            telemetry.events.len(),
        )
    };
    let (snap_info, events_info) = run_at(xdb_obs::Level::Info);
    let (snap_err, events_err) = run_at(xdb_obs::Level::Error);
    // Filtering drops events at record time…
    assert!(events_info > 0);
    assert_eq!(events_err, 0);
    // …without moving any deterministic metric.
    assert_eq!(snap_info, snap_err);
}
