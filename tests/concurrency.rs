//! Concurrency: the federation is shared infrastructure — multiple clients
//! submit cross-database queries against the same engines simultaneously.
//! Catalog locking, per-query object naming, and the transfer ledger must
//! all hold up.

use std::sync::Arc;
use xdb::core::annotate::plan_fingerprint;
use xdb::core::{GlobalCatalog, QueryOutcome, Xdb, XdbOptions};
use xdb::engine::profile::EngineProfile;
use xdb::net::Scenario;
use xdb::obs::SpanKind;
use xdb::tpch::{build_cluster, distributions, ProfileAssignment, TableDist, TpchQuery};

const SF: f64 = 0.002;

#[test]
fn concurrent_submissions_share_one_federation() {
    let cluster = Arc::new(
        build_cluster(
            TableDist::Td1,
            SF,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap(),
    );
    let catalog = Arc::new(GlobalCatalog::discover(&cluster).unwrap());

    // Reference results, computed serially first.
    let reference: Vec<_> = {
        let xdb = Xdb::new(&cluster, &catalog);
        TpchQuery::ALL
            .iter()
            .map(|q| xdb.submit(q.sql()).unwrap().relation)
            .collect()
    };

    // 4 threads × all queries, interleaved on the same cluster. Each
    // thread has its own client (its own query-id counter); ids are
    // globally unique because the counters start from different bases.
    let results: Vec<Vec<xdb::engine::relation::Relation>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cluster = Arc::clone(&cluster);
                let catalog = Arc::clone(&catalog);
                s.spawn(move || {
                    let xdb = Xdb::new(&cluster, &catalog);
                    let mut out = Vec::new();
                    // Rotate the query order per thread to interleave.
                    for i in 0..TpchQuery::ALL.len() {
                        let q = TpchQuery::ALL[(i + t) % TpchQuery::ALL.len()];
                        out.push((q, xdb.submit(q.sql()).unwrap().relation));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap()
                    .into_iter()
                    .map(|(q, rel)| {
                        let idx = TpchQuery::ALL.iter().position(|x| *x == q).unwrap();
                        assert!(
                            rel.same_bag(&reference[idx]),
                            "{} diverged under concurrency",
                            q.name()
                        );
                        rel
                    })
                    .collect()
            })
            .collect()
    });
    assert_eq!(results.len(), 4);

    // No short-lived objects leaked by any thread.
    for node in distributions::NODES {
        let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
        assert!(
            names.iter().all(|n| !n.starts_with("xdb_q")),
            "{node} leaked {names:?}"
        );
    }
}

#[test]
fn parallel_execution_is_observationally_equivalent_to_sequential() {
    // The parallel task scheduler must be indistinguishable from the
    // sequential executor: identical result multisets, identical transfer
    // ledgers, and bit-identical simulated timings — across queries with
    // genuinely independent tasks (Q3/Q5/Q8) and all three TPC-H table
    // distributions.
    for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
        for q in [TpchQuery::Q3, TpchQuery::Q5, TpchQuery::Q8] {
            let run = |parallel: bool| {
                let cluster = build_cluster(
                    td,
                    SF,
                    Scenario::OnPremise,
                    &ProfileAssignment::uniform(EngineProfile::postgres()),
                )
                .unwrap();
                let catalog = GlobalCatalog::discover(&cluster).unwrap();
                let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
                    parallel_execution: parallel,
                    ..Default::default()
                });
                let outcome = xdb.submit(q.sql()).unwrap();
                let bytes = cluster.ledger.total_bytes();
                let rows = cluster.ledger.total_rows();
                (outcome, bytes, rows)
            };
            let (seq, seq_bytes, seq_rows) = run(false);
            let (par, par_bytes, par_rows) = run(true);
            assert!(
                par.relation.same_bag(&seq.relation),
                "{} on {td:?}: parallel result diverged",
                q.name()
            );
            assert_eq!(
                par_bytes,
                seq_bytes,
                "{} on {td:?}: wire-byte ledgers diverged",
                q.name()
            );
            assert_eq!(
                par_rows,
                seq_rows,
                "{} on {td:?}: ledger row totals diverged",
                q.name()
            );
            assert_eq!(
                par.breakdown.exec_ms,
                seq.breakdown.exec_ms,
                "{} on {td:?}: simulated exec timings diverged",
                q.name()
            );
            assert_eq!(par.breakdown.total_ms(), seq.breakdown.total_ms());
        }
    }
}

#[test]
fn partitioned_kernels_match_sequential_under_the_parallel_scheduler() {
    // Engine-level partition parallelism composes with the task-level
    // parallel scheduler: at any partition count the decentralized results,
    // transfer ledgers, and simulated timings are exactly those of the
    // fully sequential kernels.
    for td in [TableDist::Td1, TableDist::Td2] {
        for q in [TpchQuery::Q3, TpchQuery::Q5, TpchQuery::Q8] {
            let run = |partitions: usize| {
                let cluster = build_cluster(
                    td,
                    SF,
                    Scenario::OnPremise,
                    &ProfileAssignment::uniform(EngineProfile::postgres()),
                )
                .unwrap();
                cluster.set_exec_partitions(partitions);
                let catalog = GlobalCatalog::discover(&cluster).unwrap();
                let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
                    parallel_execution: true,
                    ..Default::default()
                });
                let outcome = xdb.submit(q.sql()).unwrap();
                let bytes = cluster.ledger.total_bytes();
                let rows = cluster.ledger.total_rows();
                (outcome, bytes, rows)
            };
            let (one, one_bytes, one_rows) = run(1);
            for parts in [2usize, 8] {
                let (par, par_bytes, par_rows) = run(parts);
                assert_eq!(
                    par.relation,
                    one.relation,
                    "{} on {td:?}: partitions={parts} changed the result",
                    q.name()
                );
                assert_eq!(par_bytes, one_bytes);
                assert_eq!(par_rows, one_rows);
                assert_eq!(par.breakdown.exec_ms, one.breakdown.exec_ms);
                assert_eq!(par.breakdown.total_ms(), one.breakdown.total_ms());
            }
        }
    }
}

/// Everything one submission reports about itself that must not depend
/// on what else runs on the federation: plan fingerprint, phase
/// breakdown, cost observation, Transfer spans, and its own ledger
/// records.
fn observables(outcome: &QueryOutcome) -> String {
    let mut fp = format!(
        "{}\n{:?}\n{:?}\n",
        plan_fingerprint(&outcome.delegation),
        outcome.breakdown,
        outcome.cost
    );
    for span in outcome.trace.spans_of(SpanKind::Transfer) {
        fp.push_str(&format!(
            "{} {} {} {} {:?}\n",
            span.name, span.lane, span.start_ms, span.dur_ms, span.attrs
        ));
    }
    for t in &outcome.transfers {
        fp.push_str(&format!("{t:?}\n"));
    }
    fp
}

#[test]
fn one_client_is_safe_across_threads_too() {
    // A single Xdb instance (one shared query-id counter) used from many
    // threads must still hand out unique object names — and every
    // submission must report exactly what it reports running alone: its
    // plan, breakdown, cost observation, Transfer spans and ledger
    // records are its own, never polluted by concurrent queries.
    let cluster = Arc::new(
        build_cluster(
            TableDist::Td1,
            SF,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap(),
    );
    let catalog = Arc::new(GlobalCatalog::discover(&cluster).unwrap());
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        freeze_profiles: true,
        ..Default::default()
    });
    // One warm-up round fills the consultation cache; the warm solo run
    // after it is the reference.
    for q in TpchQuery::ALL {
        xdb.submit(q.sql()).unwrap();
    }
    let solo: Vec<String> = TpchQuery::ALL
        .iter()
        .map(|q| observables(&xdb.submit(q.sql()).unwrap()))
        .collect();
    std::thread::scope(|s| {
        for t in 0..4 {
            let (xdb, solo) = (&xdb, &solo);
            s.spawn(move || {
                for round in 0..3 {
                    // Rotate the query order per thread and round so
                    // different queries overlap.
                    for i in 0..TpchQuery::ALL.len() {
                        let qi = (i + t + round) % TpchQuery::ALL.len();
                        let q = TpchQuery::ALL[qi];
                        let outcome = xdb.submit(q.sql()).unwrap();
                        assert_eq!(
                            observables(&outcome),
                            solo[qi],
                            "{} (thread {t}, round {round}) diverged from its solo run",
                            q.name()
                        );
                    }
                }
            });
        }
    });
}
