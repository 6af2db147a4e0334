//! Structural invariants of delegation plans and failure-injection tests
//! for the delegation engine, across all evaluated queries and table
//! distributions.

use std::sync::Arc;
use xdb::core::annotate::{fragment_keys, AnnotateOptions, Annotator, PlacementPolicy};
use xdb::core::delegation::DdlKind;
use xdb::core::plan::DelegationPlan;
use xdb::core::{GlobalCatalog, QueryServer, SessionOptions, Submission, Xdb};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::engine::EngineError;
use xdb::net::Scenario;
use xdb::obs::Telemetry;
use xdb::sql::algebra::LogicalPlan;
use xdb::sql::bind::bind_select;
use xdb::sql::optimize::{optimize, OptimizeOptions};
use xdb::sql::parse_select;
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

const SF: f64 = 0.002;

fn federation(td: TableDist) -> (Cluster, GlobalCatalog) {
    let cluster = build_cluster(
        td,
        SF,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    for t in catalog.table_names() {
        catalog.consult(&cluster, &t).unwrap();
    }
    (cluster, catalog)
}

fn annotate(
    cluster: &Cluster,
    catalog: &GlobalCatalog,
    sql: &str,
    options: AnnotateOptions,
) -> DelegationPlan {
    let bound = bind_select(&parse_select(sql).unwrap(), catalog).unwrap();
    let optimized = optimize(bound, catalog, OptimizeOptions::default());
    Annotator::new(catalog, cluster, options)
        .run(&optimized)
        .unwrap()
        .plan
}

/// Every scan in every task must reside on the task's DBMS — tasks never
/// read another DBMS's base tables directly (that is what placeholders are
/// for).
#[test]
fn tasks_scan_only_local_tables() {
    for td in TableDist::ALL {
        let (cluster, catalog) = federation(td);
        for q in TpchQuery::ALL {
            let plan = annotate(&cluster, &catalog, q.sql(), AnnotateOptions::default());
            for task in &plan.tasks {
                let mut stack = vec![&task.plan];
                while let Some(p) = stack.pop() {
                    if let LogicalPlan::Scan { relation, .. } = p {
                        let home = catalog.location(relation).unwrap();
                        assert_eq!(
                            home,
                            &task.dbms,
                            "{} {}: task t{} on {} scans {} (home {})",
                            td.name(),
                            q.name(),
                            task.id,
                            task.dbms,
                            relation,
                            home
                        );
                    }
                    stack.extend(p.children());
                }
            }
        }
    }
}

/// With pruning, cross-database operators are placed only on DBMSes that
/// host base data of the query (never on an uninvolved third party).
#[test]
fn pruned_placement_stays_on_input_dbmses() {
    for td in TableDist::ALL {
        let (cluster, catalog) = federation(td);
        for q in TpchQuery::ALL {
            let plan = annotate(&cluster, &catalog, q.sql(), AnnotateOptions::default());
            let homes: Vec<String> = q
                .tables()
                .iter()
                .map(|ab| {
                    let t = xdb::tpch::TpchTable::from_abbrev(ab).unwrap();
                    td.node_of(t).to_string()
                })
                .collect();
            for task in &plan.tasks {
                assert!(
                    homes.contains(&task.dbms.as_str().to_string()),
                    "{} {}: task on uninvolved node {}",
                    td.name(),
                    q.name(),
                    task.dbms
                );
            }
        }
    }
}

/// The edge set is exactly the placeholder references: every non-root task
/// has exactly one consumer, the root has none, and the DAG is connected.
#[test]
fn plan_dag_is_well_formed() {
    let (cluster, catalog) = federation(TableDist::Td3);
    for q in TpchQuery::ALL {
        let plan = annotate(&cluster, &catalog, q.sql(), AnnotateOptions::default());
        for task in &plan.tasks {
            let out_degree = plan.edges.iter().filter(|e| e.from == task.id).count();
            if task.id == plan.root {
                assert_eq!(out_degree, 0, "{}: root has a consumer", q.name());
            } else {
                assert_eq!(
                    out_degree,
                    1,
                    "{}: task t{} has {} consumers",
                    q.name(),
                    task.id,
                    out_degree
                );
            }
        }
        // Edges only point forward (bottom-up task ids are topological).
        for e in &plan.edges {
            assert!(e.from < e.to, "{}: edge t{} -> t{}", q.name(), e.from, e.to);
        }
    }
}

/// Mediator decomposition: the root lands on the mediator and hosts every
/// placeholder; sub-query tasks are placeholder-free.
#[test]
fn mediator_policy_produces_mw_shape() {
    let (cluster, catalog) = federation(TableDist::Td1);
    for q in TpchQuery::ALL {
        let plan = annotate(
            &cluster,
            &catalog,
            q.sql(),
            AnnotateOptions {
                placement: PlacementPolicy::Mediator("mediator".into()),
                ..Default::default()
            },
        );
        assert_eq!(plan.task(plan.root).dbms.as_str(), "mediator");
        xdb::baselines::mediator::assert_subqueries_pure(&plan);
    }
}

/// Failure injection: a name collision makes a delegation DDL fail
/// mid-deployment; submit must return the error and leave no short-lived
/// objects behind. The folded arm squats, in turn, every object a
/// partially folded admission deploys itself: the window must return the
/// typed error and drain every engine back to its pre-window baseline.
#[test]
fn failed_delegation_cleans_up() {
    let (cluster, catalog) = federation(TableDist::Td1);
    let xdb = Xdb::new(&cluster, &catalog);
    // Plan once to learn the names the next query will use (query ids are
    // sequential), then squat on the root view name.
    let (plan, script, _, _) = xdb.plan(TpchQuery::Q3.sql()).unwrap();
    let root_node = plan.task(plan.root).dbms.clone();
    let squatted = script
        .steps
        .iter()
        .rev()
        .find(|s| s.node == root_node)
        .unwrap()
        .sql
        .clone();
    // Extract the view name from "CREATE VIEW <name> AS ...", then squat
    // on the *next* query id's name (ids are process-global, so parse the
    // observed one rather than assuming it).
    let observed = squatted.split_whitespace().nth(2).unwrap().to_string();
    let qid: u64 = observed
        .strip_prefix("xdb_q")
        .and_then(|rest| rest.split('_').next())
        .and_then(|n| n.parse().ok())
        .unwrap();
    // Other tests in this binary also draw from the process-global id
    // counter, so squat a whole range of upcoming ids.
    let squatters: Vec<String> = (1..=8)
        .map(|d| observed.replace(&format!("_q{qid:020}_"), &format!("_q{:020}_", qid + d)))
        .collect();
    for name in &squatters {
        cluster
            .execute(
                root_node.as_str(),
                &format!("CREATE TABLE {name} (x BIGINT)"),
            )
            .unwrap();
    }
    let err = xdb.submit(TpchQuery::Q3.sql());
    assert!(err.is_err(), "expected delegation failure");
    // Everything else was rolled back: only the squatters remain.
    for node in xdb::tpch::NODES {
        let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
        let leaked: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("xdb_q") && !squatters.contains(n))
            .collect();
        assert!(leaked.is_empty(), "{node} leaked {leaked:?}");
    }
    // After removing the obstructions, the same query succeeds again.
    for name in &squatters {
        cluster
            .execute(root_node.as_str(), &format!("DROP TABLE {name}"))
            .unwrap();
    }
    xdb.submit(TpchQuery::Q3.sql()).unwrap();

    folded_failure_cleans_up();
}

/// The name an object-creating DDL statement creates.
fn created_object(sql: &str) -> String {
    let words: Vec<&str> = sql.split_whitespace().collect();
    let at = words
        .iter()
        .position(|w| w.eq_ignore_ascii_case("view") || w.eq_ignore_ascii_case("table"))
        .unwrap();
    words[at + 1].trim_end_matches('(').to_string()
}

fn folded_failure_cleans_up() {
    let (mut cluster, mut catalog) = federation(TableDist::Td1);
    let telemetry = Telemetry::new_handle();
    cluster.set_telemetry(Arc::clone(&telemetry));
    catalog.set_telemetry(Arc::clone(&telemetry));
    let xdb = Xdb::new(&cluster, &catalog);
    // Q3 deploys every fragment; the variant shares all but the root
    // (another LIMIT), so it folds partially and deploys only the rest.
    let variant = TpchQuery::Q3.sql().replace("limit 10", "limit 5");
    let subs = [
        Submission::new("tenant-a", TpchQuery::Q3.sql()),
        Submission::new("tenant-b", variant.as_str()),
    ];
    let server = QueryServer::new(&cluster, &catalog, SessionOptions::default());
    let report = server.run(&subs).unwrap();
    assert!(report.outcomes[1].fold_hits > 0 && !report.outcomes[1].full_fold);
    // The variant's own objects: the steps of every task no Q3 fragment
    // serves, named under the variant's query id.
    let (q3_plan, ..) = xdb.plan(TpchQuery::Q3.sql()).unwrap();
    let shared: Vec<String> = fragment_keys(&q3_plan).into_values().collect();
    let (plan, script, ..) = xdb.plan(&variant).unwrap();
    let keys = fragment_keys(&plan);
    let own: Vec<(String, String, DdlKind)> = script
        .steps
        .iter()
        .filter(|s| !shared.contains(&keys[&s.task]))
        .map(|s| (s.node.as_str().to_string(), created_object(&s.sql), s.kind))
        .collect();
    assert!(!own.is_empty() && own.len() < script.steps.len());
    let id_part = |id: u64| format!("_q{id:020}_");
    let live = || -> Vec<f64> {
        xdb::tpch::NODES
            .iter()
            .map(|n| {
                telemetry
                    .metrics
                    .value("ddl.objects_live", &[("engine", n)])
            })
            .collect()
    };
    for (node, object, kind) in &own {
        // Squat with another kind than the object, so the admission's
        // own cleanup (`DROP <kind> IF EXISTS`) leaves the squatter be.
        let squat = |name: &str| match kind {
            DdlKind::Materialize => format!("CREATE VIEW {name} AS SELECT 1 AS x"),
            _ => format!("CREATE TABLE {name} (x BIGINT)"),
        };
        let unsquat = |name: &str| match kind {
            DdlKind::Materialize => format!("DROP VIEW {name}"),
            _ => format!("DROP TABLE {name}"),
        };
        // Ids are process-global and other tests draw them too: squat a
        // range starting past the id Q3 will take. Should a concurrent
        // draw shift Q3 into the range, Q3 fails instead; try again.
        let mut injected = false;
        for _ in 0..8 {
            let (_, probe, ..) = xdb.plan(TpchQuery::Q3.sql()).unwrap();
            let names: Vec<String> = (2..=9)
                .map(|d| object.replace(&id_part(script.query_id), &id_part(probe.query_id + d)))
                .collect();
            for name in &names {
                cluster.execute(node, &squat(name)).unwrap();
            }
            let baseline = live();
            let events_before = telemetry.events.len();
            let err = server
                .run(&subs)
                .expect_err("squatted deployment must fail");
            assert_eq!(live(), baseline, "window left objects behind ({object})");
            for name in &names {
                cluster.execute(node, &unsquat(name)).unwrap();
            }
            let q3_completed = telemetry.events.snapshot()[events_before..]
                .iter()
                .any(|e| e.message == "session query completed");
            if q3_completed {
                assert!(matches!(err, EngineError::Catalog(_)), "{object}: {err:?}");
                injected = true;
                break;
            }
        }
        assert!(injected, "never injected a failure into {object}");
    }
    // Without obstructions the window runs again.
    server.run(&subs).unwrap();
}

/// Dead connector mid-execution: queries against a vanished server fail
/// with a Remote error, not a panic, and the client's cleanup still runs.
#[test]
fn vanished_server_reported_cleanly() {
    let (cluster, catalog) = federation(TableDist::Td1);
    // Point a foreign table at a server that does not exist and query
    // through it.
    cluster
        .execute(
            "db1",
            "CREATE FOREIGN TABLE ghost (x BIGINT) SERVER db99 OPTIONS (remote 'nope')",
        )
        .unwrap();
    let err = cluster.query("db1", "SELECT * FROM ghost").unwrap_err();
    assert!(matches!(err, xdb::engine::EngineError::Remote(_)));
    // The federation still works for real queries afterwards.
    let xdb = Xdb::new(&cluster, &catalog);
    xdb.submit(TpchQuery::Q3.sql()).unwrap();
}
