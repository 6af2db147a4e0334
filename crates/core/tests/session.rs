//! Plan-folding semantics: folding N concurrent copies of a query must be
//! observationally equivalent — per tenant — to executing one copy and
//! fanning the result out. Each tenant's result relation, as-if-alone
//! phase breakdown, and attributed ledger view must be bit-identical to
//! running the same query unfolded; shared fragments must be deployed
//! exactly once and drained from every engine by window close; and every
//! admission must leave the same cost observation and history record as
//! its unfolded twin.

use proptest::prelude::*;
use std::sync::Arc;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{GlobalCatalog, QueryServer, SessionOptions, Submission, TenantOutcome, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_obs::Telemetry;

fn setup() -> (Cluster, GlobalCatalog, Arc<Telemetry>) {
    let (mut cluster, mut catalog) = scenario::build(ScenarioConfig::default()).unwrap();
    let telemetry = Telemetry::new_handle();
    cluster.set_telemetry(Arc::clone(&telemetry));
    catalog.set_telemetry(Arc::clone(&telemetry));
    (cluster, catalog, telemetry)
}

/// The per-tenant observable: result rows (bit-rendered, in order), the
/// as-if-alone breakdown, the attributed ledger view, and the cost
/// observation joined against it.
fn fingerprint(o: &TenantOutcome) -> String {
    let mut fp = String::new();
    for i in 0..o.relation.len() {
        for c in 0..o.relation.width() {
            fp.push_str(&format!("{:?}|", o.relation.value(i, c)));
        }
        fp.push('\n');
    }
    fp.push_str(&format!("{:?}\n", o.breakdown));
    for t in &o.attributed {
        fp.push_str(&format!("{t:?}\n"));
    }
    fp.push_str(&format!("{:?}\n", o.cost));
    fp
}

fn copies(sql: &str, n: usize) -> Vec<Submission> {
    (0..n)
        .map(|i| Submission::new(format!("tenant-{i}"), sql))
        .collect()
}

struct Arm {
    report: xdb_core::SessionReport,
    telemetry: Arc<Telemetry>,
    baseline_live: Vec<(String, f64)>,
    final_live: Vec<(String, f64)>,
    /// Physical bytes on the wire for the whole run.
    total_bytes: u64,
}

fn run_arm(subs: &[Submission], fold: bool, xdb: XdbOptions) -> Arm {
    let (cluster, catalog, telemetry) = setup();
    let nodes = cluster.node_names();
    let live = |t: &Arc<Telemetry>| -> Vec<(String, f64)> {
        nodes
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    t.metrics.value("ddl.objects_live", &[("engine", n)]),
                )
            })
            .collect()
    };
    let baseline_live = live(&telemetry);
    let server = QueryServer::new(
        &cluster,
        &catalog,
        SessionOptions {
            xdb,
            fold,
            window: 0,
        },
    );
    let report = server.run(subs).unwrap();
    let final_live = live(&telemetry);
    let total_bytes = cluster.ledger.total_bytes();
    Arm {
        report,
        telemetry,
        baseline_live,
        final_live,
        total_bytes,
    }
}

/// Run the folded and the unfolded arm over the same submissions.
fn arms(subs: &[Submission], xdb: XdbOptions) -> (Arm, Arm) {
    (run_arm(subs, true, xdb.clone()), run_arm(subs, false, xdb))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Folding N concurrent copies ≡ one query fanned out: every tenant
    /// observes the exact result, breakdown, and attributed transfers it
    /// would have observed running the same query alone, unfolded — at
    /// any transport chunk size.
    #[test]
    fn folding_n_copies_matches_unfolded_fanout(n in 2usize..6, pick in 0usize..3) {
        let chunk = [0usize, 256, 4096][pick];
        let subs = copies(scenario::EXAMPLE_QUERY, n);
        let xdb = XdbOptions { stream_chunk_rows: chunk, ..Default::default() };
        let (folded, unfolded) = arms(&subs, xdb);
        assert_eq!(folded.report.outcomes.len(), n);
        for (f, u) in folded.report.outcomes.iter().zip(&unfolded.report.outcomes) {
            assert_eq!(f.tenant, u.tenant);
            assert_eq!(fingerprint(f), fingerprint(u), "tenant {}", f.tenant);
        }
        // One deployment, N-1 fan-outs: the folded run ships exactly
        // one query's worth of DDLs, the unfolded run N times as many.
        assert_eq!(folded.report.full_folds, n as u64 - 1);
        assert!(folded.report.fragments_deployed > 0);
        assert_eq!(
            folded.report.ddl_statements * n as u64,
            unfolded.report.ddl_statements
        );
        assert!(folded.total_bytes < unfolded.total_bytes);
    }
}

#[test]
fn fold_deploys_fragments_once_and_consult_and_ddl_traffic_drop() {
    let subs = copies(scenario::EXAMPLE_QUERY, 5);
    let (folded, unfolded) = arms(&subs, XdbOptions::default());
    let fr = &folded.report;
    let ur = &unfolded.report;
    // Every copy after the first folds completely.
    assert_eq!(fr.full_folds, 4);
    assert_eq!(fr.plan_cache_hits, 4);
    // Each shared fragment was deployed exactly once (EXAMPLE_QUERY's
    // plan has 3 tasks): the folded run shipped exactly the DDLs of
    // one deployment, the unfolded run five times as many.
    assert_eq!(fr.fragments_deployed, 3);
    assert_eq!(fr.ddl_statements * 5, ur.ddl_statements);
    // Consultation probes collapse to the cold plan's.
    assert!(fr.consult_probes < ur.consult_probes);
    assert_eq!(fr.consult_probes * 5, ur.consult_probes);
    // Per-tenant equivalence still holds.
    for (f, u) in fr.outcomes.iter().zip(&ur.outcomes) {
        assert_eq!(fingerprint(f), fingerprint(u), "tenant {}", f.tenant);
    }
    // Folding strictly reduces physical bytes moved.
    assert!(folded.total_bytes < unfolded.total_bytes);
    // Shared fragments drained: every engine's live-object gauge is
    // back at its pre-run baseline (and something was deployed).
    assert_eq!(folded.baseline_live, folded.final_live);
    let peak = folded
        .final_live
        .iter()
        .map(|(n, _)| {
            folded
                .telemetry
                .metrics
                .high_water("ddl.objects_live", &[("engine", n)])
        })
        .fold(0.0f64, f64::max);
    let base = folded
        .baseline_live
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    assert!(peak > base, "no delegation objects were ever deployed");
}

/// A query sharing EXAMPLE_QUERY's joins and pruned columns but not its
/// root aggregate: its non-root fragments fold, its root does not.
fn partial_variant() -> String {
    scenario::EXAMPLE_QUERY.replacen("avg(m.u_ml)", "min(m.u_ml)", 1)
}

#[test]
fn partial_fold_reuses_shared_prefix() {
    let subs = vec![
        Submission::new("tenant-a", scenario::EXAMPLE_QUERY),
        Submission::new("tenant-b", partial_variant()),
    ];
    let (folded, unfolded) = arms(&subs, XdbOptions::default());
    let fr = &folded.report;
    assert_eq!(fr.full_folds, 0, "distinct roots must not fully fold");
    assert!(
        fr.fold_hits > 0,
        "shared non-root fragments were not folded"
    );
    assert!(fr.ddl_statements < unfolded.report.ddl_statements);
    for (f, u) in fr.outcomes.iter().zip(&unfolded.report.outcomes) {
        assert_eq!(fingerprint(f), fingerprint(u), "tenant {}", f.tenant);
    }
}

#[test]
fn every_admission_records_its_unfolded_history() {
    // A window of N copies (one deployment, N-1 full folds) plus one
    // partial fold: every admission appends exactly one history record,
    // and each equals its unfolded twin's in plan, edges and cost.
    let n = 3;
    let mut subs = copies(scenario::EXAMPLE_QUERY, n);
    subs.push(Submission::new("tenant-p", partial_variant()));
    let history = |fold: bool| {
        let (cluster, catalog, telemetry) = setup();
        telemetry.history.enable_memory();
        let server = QueryServer::new(
            &cluster,
            &catalog,
            SessionOptions {
                fold,
                ..Default::default()
            },
        );
        let report = server.run(&subs).unwrap();
        (report, telemetry.history.records())
    };
    let (folded, folded_records) = history(true);
    let (_, unfolded_records) = history(false);
    assert_eq!(folded.full_folds, n as u64 - 1);
    assert!(folded.outcomes[n].fold_hits > 0 && !folded.outcomes[n].full_fold);
    assert_eq!(folded_records.len(), subs.len());
    assert_eq!(unfolded_records.len(), subs.len());
    for (i, (f, u)) in folded_records.iter().zip(&unfolded_records).enumerate() {
        assert_eq!(f.fingerprint, u.fingerprint, "admission {i}");
        assert_eq!(f.edges, u.edges, "admission {i}");
        assert_eq!(f.cost, u.cost, "admission {i}");
        assert!(!f.cost.is_empty(), "admission {i} observed nothing");
        assert_eq!(f.query_id, folded.outcomes[i].query_id);
    }
}

#[test]
fn windows_scope_folding_state() {
    let subs = copies(scenario::EXAMPLE_QUERY, 4);
    let (cluster, catalog, _telemetry) = setup();
    let server = QueryServer::new(
        &cluster,
        &catalog,
        SessionOptions {
            window: 2,
            ..Default::default()
        },
    );
    let report = server.run(&subs).unwrap();
    assert_eq!(report.windows, 2);
    // One deployment and one full fold per window; nothing folds across
    // the window boundary (EXAMPLE_QUERY's plan has 3 tasks).
    assert_eq!(report.full_folds, 2);
    assert_eq!(report.fragments_deployed, 6);
    assert_eq!(report.plan_cache_hits, 2);
}
