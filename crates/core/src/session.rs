//! Multi-tenant session/admission layer with concurrent-plan folding.
//!
//! [`Xdb::submit`] serves one client at a time; the north star is hundreds
//! of concurrent analytical sessions over the same federation. Following
//! GraftDB's observation that concurrent queries share large sub-plans,
//! the [`QueryServer`] admits submissions from simulated tenants in
//! *scheduling windows* and **folds** in-flight queries that share
//! sub-DAGs into a single delegation deployment:
//!
//! 1. every task sub-tree is canonicalized at annotation time
//!    ([`crate::annotate::fragment_keys`] — the same dialect-neutral
//!    rendering the consultation cache keys its probes by);
//! 2. queries admitted in the same window whose root fragment matches an
//!    already-executed one are answered straight from the window's result
//!    cache and only pay their own final-result transfer (*full fold*);
//! 3. queries sharing a strict sub-DAG prefix skip the DDLs of the shared
//!    fragments — their foreign tables point at the live shared views
//!    (*partial fold*) — and only deploy + execute what is new;
//! 4. shared fragments are deployed exactly once, reference-counted while
//!    waiters drain, and dropped at window close in reverse creation
//!    order, so every engine's `ddl.objects_live` gauge returns to its
//!    pre-window baseline.
//!
//! **One pipeline.** Folding only decides *what* to deploy: the plan
//! cache, fragment claim/release, the pruned script, fragment
//! registration, the attributed view and the full-fold fan-out live here.
//! Everything else — control charging, deployment through the task-graph
//! executor, the final query and final-result transfer, failure cleanup,
//! and the trace/breakdown/cost/history records — is the client's own
//! execute and record stages ([`Xdb::submit`] composes the same two).
//!
//! **Determinism contract.** Admission processes the queue strictly in
//! submission order, so results, ledgers, traces and deterministic metric
//! snapshots are a function of the submission list — at any executor
//! partition count, reactor budget and stream chunk size. Folding itself
//! changes the *physical* ledger by design (a shared edge is charged
//! once); each tenant's observable outcome — its result relation, its
//! as-if-alone [`PhaseBreakdown`], its *attributed* ledger view (shared
//! records attributed to every waiter), and the cost observation and
//! history record derived from that view — is bit-identical to running
//! the same query unfolded.
//!
//! **Tenant awareness.** Every outcome carries the tenant and a fresh
//! query id; traces get a `tenant` attribute on the query span (and a
//! fold span on fan-outs); telemetry counters (`session.submissions`,
//! `session.fold_hits`) are labeled per tenant, and events carry the query
//! id as correlation id.

use crate::annotate::PlacementDecision;
use crate::client::{
    next_query_id, Deploy, PhaseBreakdown, QueryCtx, Recorded, StepRun, Xdb, XdbOptions,
    PREP_PARSE_MS,
};
use crate::delegation::{
    build_script, build_script_with_reuse, run_cleanup, view_name, DelegationScript,
};
use crate::global::GlobalCatalog;
use crate::plan::DelegationPlan;
use std::collections::HashMap;
use xdb_engine::cluster::{Cluster, ScopedCluster};
use xdb_engine::error::Result;
use xdb_engine::relation::Relation;
use xdb_net::{NodeId, Transfer};
use xdb_obs::{QueryTrace, SpanKind, TraceCollector};

/// One tenant query handed to the admission queue.
#[derive(Debug, Clone)]
pub struct Submission {
    pub tenant: String,
    pub sql: String,
}

impl Submission {
    pub fn new(tenant: impl Into<String>, sql: impl Into<String>) -> Submission {
        Submission {
            tenant: tenant.into(),
            sql: sql.into(),
        }
    }
}

/// Admission/folding configuration.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Per-query middleware options (executor, chunking, tracing).
    pub xdb: XdbOptions,
    /// Fold queries sharing sub-DAGs within a scheduling window. Off
    /// reproduces strictly serial `Xdb::submit` admission.
    pub fold: bool,
    /// Submissions per scheduling window; 0 admits everything into one
    /// window. Fragments and cached results never outlive their window.
    pub window: usize,
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        SessionOptions {
            xdb: XdbOptions::default(),
            fold: true,
            window: 0,
        }
    }
}

/// Per-tenant outcome of one admitted query.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    pub tenant: String,
    /// Position in the admission queue (client-assigned submission index).
    pub index: usize,
    /// Correlation id (fresh even for fan-out waiters).
    pub query_id: u64,
    pub relation: Relation,
    /// As-if-alone phase breakdown: what this tenant would observe running
    /// the same query by itself against warm caches.
    pub breakdown: PhaseBreakdown,
    pub trace: QueryTrace,
    /// Cost-model observation of this admission, joined against its
    /// attributed view — equal to the same query's unfolded observation.
    pub cost: xdb_obs::CostObservation,
    /// Whole plan answered from the window result cache.
    pub full_fold: bool,
    /// Number of this plan's tasks served by shared fragments.
    pub fold_hits: u64,
    /// Simulated admission instant (window open).
    pub admitted_ms: f64,
    /// Simulated completion instant on the session clock.
    pub completed_ms: f64,
    /// Queueing-inclusive latency (`completed - admitted`) — the number
    /// the p50/p95/p99 gates are computed over.
    pub latency_ms: f64,
    /// This tenant's attributed ledger view: every transfer its query
    /// depends on, shared fragment records included (charged once
    /// physically, attributed to each waiter).
    pub attributed: Vec<Transfer>,
}

/// Aggregate outcome of one [`QueryServer::run`].
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    pub outcomes: Vec<TenantOutcome>,
    /// Simulated makespan of the whole run.
    pub makespan_ms: f64,
    pub windows: u64,
    /// Tasks served by shared fragments, summed over all queries.
    pub fold_hits: u64,
    /// Queries answered entirely from the window result cache.
    pub full_folds: u64,
    /// Fragments deployed (deduplicated — each shared fragment once).
    pub fragments_deployed: u64,
    pub plan_cache_hits: u64,
    /// Consultation probes actually issued (metadata + EXPLAIN) during
    /// planning across the run.
    pub consult_probes: u64,
    /// DDL statements actually shipped to engines across the run.
    pub ddl_statements: u64,
}

impl SessionReport {
    /// Aggregate throughput over the simulated makespan.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.makespan_ms * 1000.0
    }

    /// Queueing-inclusive latency quantile (nearest-rank on the sorted
    /// per-tenant latencies).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = self.outcomes.iter().map(|o| o.latency_ms).collect();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }

    /// Mean fold hits per admitted query.
    pub fn mean_fold_hits(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.fold_hits as f64 / self.outcomes.len() as f64
    }
}

/// One live shared fragment of the current scheduling window.
struct Fragment {
    /// Name of the deployed view on the owning engine.
    view: String,
    /// This fragment's DDL steps, in script order: their control messages
    /// and data transfers (charged once physically, attributed to every
    /// waiter) and execution reports (spliced into each waiter's solo
    /// timeline replay, so a partially folded query still reports its
    /// exact as-if-alone breakdown and trace).
    steps: Vec<StepRun>,
    /// Waiters currently claiming this fragment; must drain to zero before
    /// window close drops the backing objects.
    refs: u64,
}

/// Window result cache entry, keyed by the root fragment key.
struct CachedResult {
    relation: Relation,
    /// As-if-alone execution time of the shared plan.
    exec_ms: f64,
    root_node: NodeId,
    /// The owner's attributed ledger view without its final-result
    /// transfer (control, then data including the final pipelined query) —
    /// every fan-out waiter inherits it and appends its own final result.
    attributed: Vec<Transfer>,
    /// The owner's execution counters (`node.*`, `exec.*`): a fan-out
    /// waiter's as-if-alone statement work, from which its cost
    /// observation and history record are derived.
    exec_counters: Vec<(String, f64)>,
}

/// Window plan cache entry, keyed by the submitted SQL text.
struct CachedPlan {
    delegation: DelegationPlan,
    decisions: Vec<PlacementDecision>,
    fragment_keys: HashMap<usize, String>,
    lopt_ms: f64,
    /// Probe counts of the cold plan; a warm replan answers all of them
    /// from the consultation cache (transient `xdb_q*` objects never bump
    /// a node's DDL generation), which is what the synthesized breakdown
    /// of a plan-cache hit reproduces bit-exactly.
    prep_probes: u64,
    ann_probes: u64,
}

/// Per-window folding state.
#[derive(Default)]
struct WindowState {
    fragments: HashMap<String, Fragment>,
    results: HashMap<String, CachedResult>,
    plan_cache: HashMap<String, CachedPlan>,
    /// Scripts of the queries that deployed objects, torn down in reverse
    /// query order at window close (consumers drop before the shared views
    /// they read).
    deployed: Vec<DelegationScript>,
}

impl WindowState {
    /// Claim every live shared fragment of the plan: task id -> view.
    fn claim(
        &mut self,
        plan: &DelegationPlan,
        keys: &HashMap<usize, String>,
    ) -> HashMap<usize, String> {
        let mut reuse = HashMap::new();
        for id in plan.topo_order() {
            if let Some(f) = self.fragments.get_mut(&keys[&id]) {
                f.refs += 1;
                reuse.insert(id, f.view.clone());
            }
        }
        reuse
    }

    /// Drop the claims [`WindowState::claim`] took.
    fn release(&mut self, reuse: &HashMap<usize, String>, keys: &HashMap<usize, String>) {
        for id in reuse.keys() {
            if let Some(f) = self.fragments.get_mut(&keys[id]) {
                f.refs -= 1;
            }
        }
    }
}

/// What one admission hands back to its window.
struct Admitted {
    query_id: u64,
    relation: Relation,
    rec: Recorded,
    attributed: Vec<Transfer>,
    full_fold: bool,
    fold_hits: u64,
}

/// The multi-tenant query server: an admission queue over one [`Xdb`]
/// middleware instance.
pub struct QueryServer<'a> {
    xdb: Xdb<'a>,
    options: SessionOptions,
}

impl<'a> QueryServer<'a> {
    pub fn new(
        cluster: &'a Cluster,
        catalog: &'a GlobalCatalog,
        options: SessionOptions,
    ) -> QueryServer<'a> {
        let mut xdb_options = options.xdb.clone();
        // A plan-cache hit reuses a plan priced before the window's earlier
        // observations, so absorbing them would let a tenant's plan depend
        // on folding; freeze the profiles so tenant plans — and the gated
        // latency series derived from them — do not.
        xdb_options.freeze_profiles = true;
        let xdb = Xdb::new(cluster, catalog).with_options(xdb_options);
        QueryServer { xdb, options }
    }

    /// Account the server (and its tenants) as sitting on `node`.
    pub fn with_client_node(mut self, node: impl Into<String>) -> Self {
        self.xdb = self.xdb.with_client_node(node);
        self
    }

    /// Admit and run a list of submissions, strictly in list order.
    pub fn run(&self, submissions: &[Submission]) -> Result<SessionReport> {
        let mut report = SessionReport::default();
        let mut clock = 0.0f64;
        let window = if self.options.window == 0 {
            submissions.len().max(1)
        } else {
            self.options.window
        };
        let mut base = 0usize;
        for chunk in submissions.chunks(window) {
            self.run_window(chunk, base, &mut clock, &mut report)?;
            base += chunk.len();
            report.windows += 1;
        }
        report.makespan_ms = clock;
        let telemetry = self.xdb.cluster().telemetry();
        telemetry
            .metrics
            .counter_add("session.windows", &[], report.windows as f64);
        Ok(report)
    }

    /// Process one scheduling window. On error the window's shared
    /// fragments are torn down before the error propagates.
    fn run_window(
        &self,
        subs: &[Submission],
        base_index: usize,
        clock: &mut f64,
        report: &mut SessionReport,
    ) -> Result<()> {
        let cluster = self.xdb.cluster();
        let telemetry = cluster.telemetry().clone();
        let window_open = *clock;
        let mut w = WindowState::default();
        let mut failure = None;
        for (k, sub) in subs.iter().enumerate() {
            telemetry
                .metrics
                .counter_add("session.submissions", &[("tenant", &sub.tenant)], 1.0);
            let admitted = if self.options.fold {
                self.admit_folded(sub, clock, &mut w, report)
            } else {
                self.admit_unfolded(sub, clock, report)
            };
            let a = match admitted {
                Ok(a) => a,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let latency = *clock - window_open;
            let fold = match (a.full_fold, a.fold_hits) {
                (true, _) => "full",
                (false, 0) => "none",
                _ => "partial",
            };
            // Completion telemetry: the fleet latency histogram plus a
            // tenant-correlated event.
            telemetry
                .metrics
                .observe("session.latency_ms", &[], latency);
            let lat = format!("{latency:.3}");
            telemetry.events.log(
                xdb_obs::Level::Info,
                "core.session",
                Some(a.query_id),
                latency,
                "session query completed",
                &[
                    ("tenant", &sub.tenant),
                    ("fold", fold),
                    ("latency_ms", &lat),
                ],
            );
            report.outcomes.push(TenantOutcome {
                tenant: sub.tenant.clone(),
                index: base_index + k,
                query_id: a.query_id,
                relation: a.relation,
                breakdown: a.rec.breakdown,
                trace: a.rec.trace,
                cost: a.rec.cost,
                full_fold: a.full_fold,
                fold_hits: a.fold_hits,
                admitted_ms: window_open,
                completed_ms: *clock,
                latency_ms: latency,
                attributed: a.attributed,
            });
        }
        // Window close: all waiters have drained, so every fragment's
        // refcount is back to zero and the shared objects can go.
        debug_assert!(
            w.fragments.values().all(|f| f.refs == 0),
            "window closed with live fragment references"
        );
        let dropped: usize = (w.deployed.iter().rev())
            .map(|script| run_cleanup(cluster, script))
            .sum();
        let dropped_s = dropped.to_string();
        let fragments_s = w.fragments.len().to_string();
        telemetry.events.log(
            xdb_obs::Level::Info,
            "core.session",
            None,
            *clock,
            "scheduling window closed",
            &[("dropped", &dropped_s), ("fragments", &fragments_s)],
        );
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Unfolded admission: strictly serial [`Xdb::submit`] per tenant.
    fn admit_unfolded(
        &self,
        sub: &Submission,
        clock: &mut f64,
        report: &mut SessionReport,
    ) -> Result<Admitted> {
        let outcome = self.xdb.submit(&sub.sql)?;
        report.consult_probes +=
            outcome.breakdown.consult_cache_hits + outcome.breakdown.consult_cache_misses;
        report.ddl_statements += outcome.ddl_count as u64;
        *clock += outcome.breakdown.total_ms();
        Ok(Admitted {
            query_id: outcome.query_id,
            relation: outcome.relation,
            rec: Recorded {
                delegation: outcome.delegation,
                trace: outcome.trace,
                breakdown: outcome.breakdown,
                cost: outcome.cost,
            },
            attributed: outcome.transfers,
            full_fold: false,
            fold_hits: 0,
        })
    }

    /// Folded admission of one query against the window state: plan
    /// through the window plan cache, then either fan a cached result out
    /// (full fold) or deploy only the fragments no live query shares
    /// (partial or no fold) through the client's execute stage. Either
    /// way the record stage sees the tenant's attributed view, so the
    /// cost observation and history record equal the unfolded run's.
    fn admit_folded(
        &self,
        sub: &Submission,
        clock: &mut f64,
        w: &mut WindowState,
        report: &mut SessionReport,
    ) -> Result<Admitted> {
        let cluster = self.xdb.cluster();
        let telemetry = cluster.telemetry().clone();

        // ---- Plan, through the window plan cache. A repeated SQL text
        // skips the whole optimization pipeline (its consultation probes
        // would all hit anyway — transient objects never bump a node's
        // DDL generation); the synthesized planning trace reproduces the
        // warm-replan breakdown bit-exactly.
        let (ctx, fkeys) = match w.plan_cache.get(&sub.sql) {
            Some(cp) => {
                report.plan_cache_hits += 1;
                telemetry
                    .metrics
                    .counter_add("session.plan_cache_hits", &[], 1.0);
                (cp.replan(&sub.sql), cp.fragment_keys.clone())
            }
            None => {
                let planned = self.xdb.plan_internal(&sub.sql)?;
                report.consult_probes += planned.prep_probes + planned.ann_probes;
                w.plan_cache.insert(
                    sub.sql.clone(),
                    CachedPlan {
                        delegation: planned.ctx.delegation.clone(),
                        // A warm replan answers every probe from the
                        // consultation cache: no decision pays a consult.
                        decisions: planned
                            .ctx
                            .decisions
                            .iter()
                            .map(|d| PlacementDecision {
                                paid_consults: 0,
                                ..d.clone()
                            })
                            .collect(),
                        fragment_keys: planned.fragment_keys.clone(),
                        lopt_ms: planned.lopt_ms,
                        prep_probes: planned.prep_probes,
                        ann_probes: planned.ann_probes,
                    },
                );
                (planned.ctx, planned.fragment_keys)
            }
        };
        *clock += ctx.overhead_ms;
        ctx.collector.attr(ctx.query_span, "tenant", &sub.tenant);
        let query_id = ctx.query_id;
        let root_key = fkeys[&ctx.delegation.root].clone();
        let reuse = w.claim(&ctx.delegation, &fkeys);
        let full_fold = w.results.contains_key(&root_key);
        let fold_hits = if full_fold {
            ctx.delegation.tasks.len()
        } else {
            reuse.len()
        } as u64;
        if fold_hits > 0 {
            report.fold_hits += fold_hits;
            telemetry.metrics.counter_add(
                "session.fold_hits",
                &[("tenant", &sub.tenant)],
                fold_hits as f64,
            );
        }
        let admitted = (|| {
            // ---- Full fold: the whole plan is already materialized; fan
            // the cached result out. The only fresh physical traffic is
            // this waiter's own final-result transfer.
            if let Some(cached) = w.results.get(&root_key) {
                report.full_folds += 1;
                telemetry
                    .metrics
                    .counter_add("session.full_folds", &[], 1.0);
                let relation = cached.relation.clone();
                let scope = ScopedCluster::new(cluster);
                self.xdb
                    .charge_final_result(&scope.ledger, &cached.root_node, &relation);
                let own = scope.commit();
                let exec_span = ctx.exec_span(cached.exec_ms);
                let collector = &ctx.collector;
                let fold = collector.span(
                    SpanKind::Exec,
                    "fold fan-out",
                    cached.root_node.as_str(),
                    Some(exec_span),
                    ctx.overhead_ms,
                    0.0,
                );
                collector.attr(fold, "fragments", fold_hits.to_string());
                collector.attr(ctx.query_span, "fold", "full");
                for (counter, v) in &cached.exec_counters {
                    collector.add(counter, *v);
                }
                let (start, exec_ms) = (ctx.overhead_ms, cached.exec_ms);
                self.xdb
                    .emit_transfer_spans(collector, exec_span, &own, start, exec_ms);
                collector.set_dur(ctx.query_span, start + exec_ms);
                let mut attributed = cached.attributed.clone();
                attributed.extend(own);
                let rec = self.xdb.record(&sub.sql, ctx, &attributed, relation.len());
                return Ok(Admitted {
                    query_id,
                    relation,
                    rec,
                    attributed,
                    full_fold,
                    fold_hits,
                });
            }

            // ---- Partial (or no) fold: deploy and execute only what no
            // live fragment already serves, replaying the timeline over
            // the full script of the same plan.
            let script = build_script_with_reuse(&ctx.delegation, query_id, cluster, &reuse)?;
            let solo = if reuse.is_empty() {
                None
            } else {
                Some(build_script(&ctx.delegation, query_id, cluster)?)
            };
            report.ddl_statements += script.steps.len() as u64;
            let owners = (reuse.keys())
                .map(|id| (*id, w.fragments[&fkeys[id]].steps.as_slice()))
                .collect();
            // Shared fragments outlive this query: its own objects are
            // dropped at window close (or, on failure, by the execute
            // stage).
            let to_deploy = Deploy {
                script: &script,
                solo: solo.as_ref().unwrap_or(&script),
                owners,
                keep_objects: true,
            };
            let exec = self.xdb.execute(&ctx, &to_deploy)?;
            // Register the freshly deployed fragments for later waiters.
            let fresh: Vec<usize> = (ctx.delegation.topo_order().into_iter())
                .filter(|id| !reuse.contains_key(id))
                .collect();
            for &id in &fresh {
                let steps = (script.steps.iter().zip(&exec.steps))
                    .filter(|(step, _)| step.task == id)
                    .map(|(_, run)| run.clone())
                    .collect();
                let view = view_name(query_id, id);
                let fragment = Fragment {
                    view,
                    steps,
                    refs: 0,
                };
                w.fragments.insert(fkeys[&id].clone(), fragment);
            }
            report.fragments_deployed += fresh.len() as u64;
            telemetry
                .metrics
                .counter_add("session.fragments_deployed", &[], fresh.len() as f64);
            // This tenant's attributed ledger view, in its own script
            // order: all control messages (shared fragments' included),
            // then all deployment data, then the final pipelined query's
            // pulls and the final-result transfer.
            let runs: Vec<&StepRun> = (ctx.delegation.topo_order().into_iter())
                .flat_map(|id| &w.fragments[&fkeys[&id]].steps)
                .collect();
            let mut shared: Vec<Transfer> = runs.iter().flat_map(|r| r.control.clone()).collect();
            shared.extend(runs.iter().flat_map(|r| r.data.clone()));
            shared.extend_from_slice(&exec.transfers[exec.final_data.clone()]);
            let mut attributed = shared.clone();
            attributed.extend_from_slice(&exec.transfers[exec.final_data.end..]);

            *clock += exec.exec_ms;
            if fold_hits > 0 {
                ctx.collector.attr(ctx.query_span, "fold", "partial");
                let fold = ctx.collector.span(
                    SpanKind::Exec,
                    "fold reuse",
                    "client",
                    Some(exec.exec_span),
                    ctx.overhead_ms,
                    0.0,
                );
                ctx.collector.attr(fold, "fragments", fold_hits.to_string());
            }
            let rec = self
                .xdb
                .record(&sub.sql, ctx, &attributed, exec.relation.len());
            let exec_counters = (rec.trace.counters.iter())
                .filter(|(k, _)| k.starts_with("node.") || k.starts_with("exec."))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            w.results.insert(
                root_key,
                CachedResult {
                    relation: exec.relation.clone(),
                    exec_ms: exec.exec_ms,
                    root_node: script.root_node.clone(),
                    attributed: shared,
                    exec_counters,
                },
            );
            w.deployed.push(script);
            Ok(Admitted {
                query_id,
                relation: exec.relation,
                rec,
                attributed,
                full_fold,
                fold_hits,
            })
        })();
        w.release(&reuse, &fkeys);
        admitted
    }
}

impl CachedPlan {
    /// The query context of a plan-cache hit: the cached plan under a
    /// fresh query id, with the planning trace synthesized to be
    /// bit-identical in phase durations and cache accounting to a real
    /// warm replan of the same query (all probes hit, so `prep` is the
    /// parse baseline and `ann` is free).
    fn replan(&self, sql: &str) -> QueryCtx {
        let collector = TraceCollector::new();
        let query_span = collector.span(SpanKind::Query, "query", "client", None, 0.0, 0.0);
        collector.attr(query_span, "sql", sql);
        let prep = collector.span(
            SpanKind::Phase,
            "prep",
            "client",
            Some(query_span),
            0.0,
            PREP_PARSE_MS,
        );
        collector.attr(prep, "plan_cache", "hit");
        collector.span(
            SpanKind::Phase,
            "lopt",
            "client",
            Some(query_span),
            PREP_PARSE_MS,
            self.lopt_ms,
        );
        collector.span(
            SpanKind::Phase,
            "ann",
            "client",
            Some(query_span),
            PREP_PARSE_MS + self.lopt_ms,
            0.0,
        );
        collector.add("consults", 0.0);
        collector.add(
            "consult.cache_hits",
            (self.prep_probes + self.ann_probes) as f64,
        );
        collector.add("consult.cache_misses", 0.0);
        let overhead_ms = PREP_PARSE_MS + self.lopt_ms;
        collector.set_dur(query_span, overhead_ms);
        QueryCtx {
            delegation: self.delegation.clone(),
            decisions: self.decisions.clone(),
            collector,
            query_span,
            overhead_ms,
            query_id: next_query_id(),
        }
    }
}
