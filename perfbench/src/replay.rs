//! Stage-by-stage replay of one XDB submission, timed from outside.
//!
//! `Xdb::submit` runs parse → metadata consults → bind → optimize →
//! annotate → script build → DDL deploy → final XDB query → cleanup,
//! plus bookkeeping (ledger, trace, observatory, profile feedback,
//! telemetry). The replay calls each stage's public function in the same
//! order with the same options and times every call, so per-layer host
//! times exist without any tracing inside the program. It also reads
//! each edge's payload back from its producer view before cleanup and
//! times the wire codec over it.

use std::collections::BTreeMap;
use std::time::Instant;
use xdb_core::annotate::plan_fingerprint;
use xdb_core::delegation::DdlKind;
use xdb_core::{build_script, run_cleanup, Annotator, GlobalCatalog, XdbOptions};
use xdb_engine::error::{EngineError, Result};
use xdb_engine::relation::Relation;
use xdb_engine::Cluster;
use xdb_net::wire;
use xdb_sql::ast::{Statement, TableRef};
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, JoinShape, OptimizeOptions};

/// Host times (ms) and counts of one replayed query.
#[derive(Debug, Clone)]
pub struct Stages {
    pub parse_ms: f64,
    pub consult_ms: f64,
    pub bind_ms: f64,
    pub optimize_ms: f64,
    pub annotate_ms: f64,
    pub script_ms: f64,
    pub deploy_ms: f64,
    pub pipeline_ms: f64,
    pub cleanup_ms: f64,
    /// Wire encode / decode of every edge payload (not a submit stage).
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub plan_nodes: usize,
    pub consults: u64,
    pub cache_hits: u64,
    pub cache_probes: u64,
    pub ddl_statements: usize,
    pub fingerprint: String,
}

impl Stages {
    /// Sum of the stages `Xdb::submit` itself performs.
    pub fn staged_ms(&self) -> f64 {
        self.parse_ms
            + self.consult_ms
            + self.bind_ms
            + self.optimize_ms
            + self.annotate_ms
            + self.script_ms
            + self.deploy_ms
            + self.pipeline_ms
            + self.cleanup_ms
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn collect_tables(from: &[TableRef], out: &mut Vec<String>) {
    for t in from {
        match t {
            TableRef::Table { name, .. } => {
                let key = name.to_ascii_lowercase();
                if !out.contains(&key) {
                    out.push(key);
                }
            }
            TableRef::Derived { query, .. } => collect_tables(&query.from, out),
            TableRef::Join { left, right, .. } => {
                collect_tables(std::slice::from_ref(left), out);
                collect_tables(std::slice::from_ref(right), out);
            }
        }
    }
}

/// Replay one query with `options` (the client's own), deploying its
/// objects under `query_id`; returns the stage times and the result. The
/// deployed objects are always dropped.
pub fn replay(
    cluster: &Cluster,
    catalog: &GlobalCatalog,
    options: &XdbOptions,
    sql: &str,
    query_id: u64,
) -> Result<(Stages, Relation)> {
    let (stmt, parse_ms) = timed(|| xdb_sql::parse_statement(sql));
    let select = match stmt? {
        Statement::Select(s) | Statement::Explain(s) => s,
        other => {
            return Err(EngineError::Unsupported(format!(
                "replay takes SELECT queries only, got {other:?}"
            )))
        }
    };
    let ((), consult_ms) = timed(|| {
        let mut tables = Vec::new();
        collect_tables(&select.from, &mut tables);
        for t in &tables {
            // Best-effort, as in the client: unknown names surface at bind.
            let _ = catalog.consult(cluster, t);
        }
    });
    let (bound, bind_ms) = timed(|| bind_select(&select, catalog));
    let bound = bound?;
    let plan_nodes = bound.node_count();
    let opts = OptimizeOptions {
        reorder_joins: !options.no_join_reorder,
        prune_columns: !options.no_column_pruning,
        join_shape: if options.bushy_joins {
            JoinShape::Bushy
        } else {
            JoinShape::LeftDeep
        },
    };
    let (optimized, optimize_ms) = timed(|| optimize(bound, catalog, opts));
    let mut aopts = options.annotate.clone();
    if !options.learned_costs {
        aopts.static_costs = true;
    }
    let (annotation, annotate_ms) = timed(|| {
        catalog.clear_placeholders();
        Annotator::new(catalog, cluster, aopts).run(&optimized)
    });
    let annotation = annotation?;
    let plan = annotation.plan;
    let (script, script_ms) = timed(|| build_script(&plan, query_id, cluster));
    let script = script?;

    // Deploy step by step, then run the XDB query; whatever happens, the
    // objects are dropped again (the cleanup is what `core.cleanup_ms`
    // times).
    let (deployed, deploy_ms) = timed(|| -> Result<()> {
        for step in &script.steps {
            cluster.execute(step.node.as_str(), &step.sql)?;
        }
        Ok(())
    });
    let executed = deployed.and_then(|()| {
        let (res, pipeline_ms) =
            timed(|| cluster.query(script.root_node.as_str(), &script.xdb_query));
        let (relation, _) = res?;
        let (codec, encode_ms, decode_ms) = edge_codec(cluster, &plan, &script)?;
        Ok((relation, pipeline_ms, codec, encode_ms, decode_ms))
    });
    let (_, cleanup_ms) = timed(|| run_cleanup(cluster, &script));
    let (relation, pipeline_ms, codec_ok, encode_ms, decode_ms) = executed?;
    if !codec_ok {
        return Err(EngineError::Unsupported(
            "wire decode did not reproduce an edge payload".to_string(),
        ));
    }
    let stages = Stages {
        parse_ms,
        consult_ms,
        bind_ms,
        optimize_ms,
        annotate_ms,
        script_ms,
        deploy_ms,
        pipeline_ms,
        cleanup_ms,
        encode_ms,
        decode_ms,
        plan_nodes,
        consults: annotation.consults,
        cache_hits: annotation.cache_hits,
        cache_probes: annotation.cache_hits + annotation.cache_misses,
        ddl_statements: script.steps.len(),
        fingerprint: plan_fingerprint(&plan),
    };
    Ok((stages, relation))
}

/// Read every edge's payload back from its producer's view and time
/// `wire::encode` / `wire::decode` over it. Returns whether every decode
/// reproduced its payload, plus the summed encode and decode times.
fn edge_codec(
    cluster: &Cluster,
    plan: &xdb_core::DelegationPlan,
    script: &xdb_core::DelegationScript,
) -> Result<(bool, f64, f64)> {
    // Producer task -> (node, view), from the script's CREATE VIEW steps.
    let mut views = BTreeMap::new();
    for step in script.steps.iter().filter(|s| s.kind == DdlKind::View) {
        if let Statement::CreateView { name, .. } = xdb_sql::parse_statement(&step.sql)? {
            views.insert(step.task, (step.node.clone(), name));
        }
    }
    let (mut ok, mut encode_ms, mut decode_ms) = (true, 0.0, 0.0);
    for edge in &plan.edges {
        let Some((node, view)) = views.get(&edge.from) else {
            return Err(EngineError::Unsupported(format!(
                "no view deployed for producer task {}",
                edge.from
            )));
        };
        let (payload, _) = cluster.query(node.as_str(), &format!("SELECT * FROM {view}"))?;
        let (encoded, enc) = timed(|| wire::encode(payload.columns(), payload.len()));
        let (decoded, dec) = timed(|| wire::decode(&encoded));
        ok &= decoded.as_slice() == payload.columns();
        encode_ms += enc;
        decode_ms += dec;
    }
    Ok((ok, encode_ms, decode_ms))
}
