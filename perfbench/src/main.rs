//! `perfbench --workload <analytic|small-mix|tenants> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures the end-to-end metrics of one closed-loop
//! workload (one client thread, default configuration, no stage timers).
//! With `--trace 1` it replays the same workload stage by stage and
//! reports per-layer metrics. Either way the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use xdb_core::annotate::plan_fingerprint;
use xdb_core::CostProfiles;
use xdb_engine::error::{EngineError, Result};
use xdb_net::reactor;
use xdb_perfbench::replay::{replay, Stages};
use xdb_perfbench::stats::{
    count_above, mean, median, quantile, render_table, result_line, Metric,
};
use xdb_perfbench::{
    data_encoded_bytes, is_data, peak_rss_mb, plan_changes, process_cpu_ms, reference_kernel_ms,
    same_result, setup, Bench, Call, CallObs, Oracle, Pair, Setup, Warmup, Workload, MIN_CALLS,
};
use xdb_tpch::TpchQuery;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Set the workload up `reps` times (keeping only the last) and return it
/// with the wall and CPU seconds of each set-up.
fn timed_setups(args: &Args, reps: usize) -> Result<(Setup, Vec<f64>, Vec<f64>)> {
    let (mut wall, mut cpu) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        let s = setup(args.workload, args.seed)?;
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push((process_cpu_ms() - c0) / 1e3);
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), wall, cpu))
}

fn say(line: impl AsRef<str>) {
    eprintln!("perfbench: {}", line.as_ref());
}

/// Run whole rounds, each from the warm-up's steady profiles, until
/// `seconds` have passed and at least `min_calls` calls were made.
fn timed_rounds(
    bench: &Bench<'_>,
    warm: &Warmup,
    seconds: f64,
    min_calls: usize,
    mut per_call: impl FnMut(&Call) -> Result<()>,
) -> Result<(usize, f64)> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut rounds, mut calls) = (0usize, 0usize);
    while rounds == 0 || start.elapsed() < budget || calls < min_calls {
        bench.restore(&warm.profiles);
        for call in &bench.round(rounds + 1) {
            per_call(call)?;
            calls += 1;
        }
        rounds += 1;
    }
    Ok((rounds, start.elapsed().as_secs_f64()))
}

fn end_to_end(args: &Args) -> Result<bool> {
    let w = args.workload;
    let (setup, setup_secs, setup_cpu) = timed_setups(args, w.setup_reps())?;
    let oracle = Oracle::new(&setup.tables, &w.queries())?;
    let bench = Bench::new(w, &setup, &oracle, args.seed);
    let round = bench.round(0);
    let warm = bench.warm_up(&round)?;
    say(format!(
        "{}: warm-up {} rounds, plans {}",
        w.name(),
        warm.rounds,
        if warm.steady {
            "settled"
        } else {
            "still changing"
        }
    ));

    let mut obs: Vec<CallObs> = Vec::new();
    let mut changes = 0usize;
    let mut pending: Vec<CallObs> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut previous = warm.fingerprints.clone();
    let (rounds, wall_s) = timed_rounds(&bench, &warm, args.seconds, MIN_CALLS, |call| {
        if pending.is_empty() {
            reference.push(reference_kernel_ms());
        }
        pending.push(bench.call(call));
        if pending.len() == round.len() {
            if w != Workload::Tenants {
                let fps = bench.fingerprints(&pending)?;
                let n = plan_changes(&previous, &fps);
                if n > 0 {
                    say(format!(
                        "timed round {}: {n} plan changes",
                        obs.len() / round.len() + 1
                    ));
                }
                changes += n;
                previous = fps;
            }
            obs.append(&mut pending);
        }
        Ok(())
    })?;
    if w == Workload::Tenants {
        changes += plan_changes(&previous, &bench.fingerprints(&obs)?);
    }

    let attempted: usize = obs.iter().map(|o| o.queries).sum();
    let failed: usize = obs.iter().map(|o| o.wrong).sum();
    let host: Vec<f64> = obs.iter().map(|o| o.host_ms).collect();
    let cpu: Vec<f64> = obs.iter().map(|o| o.cpu_ms).collect();
    let sim: Vec<f64> = obs.iter().flat_map(|o| o.sim_ms.iter().copied()).collect();
    let data_bytes: u64 = obs.iter().map(|o| o.data_bytes).sum();
    let p95 = quantile(&host, 0.95);
    let per_query = |total: f64| total / attempted.max(1) as f64;
    // CPU per query of each timed round; their median shrugs off the
    // rounds a noisy neighbour slowed down.
    let round_cpu: Vec<f64> = obs
        .chunks(round.len())
        .map(|r| {
            r.iter().map(|o| o.cpu_ms).sum::<f64>()
                / r.iter().map(|o| o.queries).sum::<usize>() as f64
        })
        .collect();
    say(format!(
        "CPU per query over {} rounds: min {:.3} ms, median {:.3} ms, max {:.3} ms",
        round_cpu.len(),
        quantile(&round_cpu, 0.0),
        median(&round_cpu),
        quantile(&round_cpu, 1.0)
    ));
    // Gated: host cost in units of the reference kernel's CPU time
    // (steal-free and drift-free), simulated latency, wire bytes, set-up
    // and memory.
    let ref_ms = median(&reference);
    let metrics = vec![
        Metric::new("cpu_rel_per_query", "ref", median(&round_cpu) / ref_ms),
        Metric::new("cpu_rel_p50", "ref", median(&cpu) / ref_ms),
        Metric::new("cpu_rel_p95", "ref", quantile(&cpu, 0.95) / ref_ms),
        Metric::new("sim_p50_ms", "ms", median(&sim)),
        Metric::new("sim_p95_ms", "ms", quantile(&sim, 0.95)),
        Metric::new("net_kb_per_query", "KB", per_query(data_bytes as f64 / 1e3)),
        Metric::new("setup_s", "s", median(&setup_cpu)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(0.0)),
    ];
    // Printed only: the same costs in ms of CPU, and the wall-clock
    // figures, which move with hypervisor steal; a gated metric must
    // never be 0.
    let mut table = metrics.clone();
    table.extend([
        Metric::new("reference_ms", "ms", ref_ms),
        Metric::new("cpu_ms_per_query", "ms", median(&round_cpu)),
        Metric::new("cpu_p50_ms", "ms", median(&cpu)),
        Metric::new("cpu_p95_ms", "ms", quantile(&cpu, 0.95)),
        Metric::new(
            "qps",
            "1/s",
            attempted as f64 / (host.iter().sum::<f64>() / 1e3),
        ),
        Metric::new("latency_p50_ms", "ms", median(&host)),
        Metric::new("latency_p95_ms", "ms", p95),
        Metric::new("setup_wall_s", "s", median(&setup_secs)),
        Metric::new(
            "error_rate",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
    ]);
    print!(
        "{}",
        render_table(&format!("{} end-to-end", w.name()), &table)
    );
    println!(
        "calls {} in {rounds} rounds ({wall_s:.2} s wall), {} above p95 (cpu {}); queries {attempted}; \
         setups {setup_cpu:.3?} cpu s; warm-up rounds {}; plan changes while timed {changes} ({})",
        host.len(),
        count_above(&host, p95),
        count_above(&cpu, quantile(&cpu, 0.95)),
        warm.rounds,
        if changes == 0 && warm.steady { "steady" } else { "UNSTEADY" },
    );
    let correct = failed == 0 && warm.wrong == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(true)
}

/// Per-query sums of the traced run.
#[derive(Default)]
struct Layers {
    queries: usize,
    stages: Vec<Stages>,
    submit_ms: f64,
    residual_ms: f64,
    local_ms: f64,
    rows_out: f64,
    transfers: f64,
    raw_bytes: f64,
    encoded_bytes: f64,
    reactor_jobs: f64,
    spans: f64,
    plan_changes: usize,
    fold_hits: f64,
    fragments_deployed: f64,
    plan_cache_hits: f64,
    consult_probes: f64,
    session_ddl: f64,
    admissions: f64,
    traced_call_ms: Vec<f64>,
    /// This round's replayed queries: the learned profiles each was
    /// planned from and the replay's plan fingerprint.
    checks: Vec<(Pair, CostProfiles, String)>,
    mismatches: Vec<String>,
}

/// Query ids for replayed objects, far above anything the middleware's
/// own counter reaches in one run.
const REPLAY_ID_BASE: u64 = 900_000_000;

impl Layers {
    fn stage_mean(&self, f: impl Fn(&Stages) -> f64) -> f64 {
        mean(&self.stages.iter().map(f).collect::<Vec<_>>())
    }

    fn per_query(&self, total: f64) -> f64 {
        total / self.queries.max(1) as f64
    }

    /// Plan every query of the last traced round again through
    /// `Xdb::plan`, from the profiles its replay saw, and compare plan
    /// fingerprints. Runs after the timed rounds, because planning
    /// consults (and so warms) the consultation cache.
    fn check_plans(&mut self, bench: &Bench<'_>) -> Result<()> {
        let after = bench.profiles();
        for (pair, profiles, replayed) in std::mem::take(&mut self.checks) {
            bench.setup.feds[pair.fed].catalog.set_profiles(profiles);
            let planned = plan_fingerprint(&bench.clients[pair.fed].plan(pair.query.sql())?.0);
            if planned != replayed {
                let fed = bench.setup.feds[pair.fed].dist.name();
                self.mismatches.push(format!(
                    "{} on {fed}: replayed plan differs from Xdb::plan's",
                    pair.query.name()
                ));
            }
        }
        bench.restore(&after);
        Ok(())
    }

    /// Replay one query, then submit it for real, and record every layer.
    fn trace_query(
        &mut self,
        bench: &Bench<'_>,
        pair: Pair,
        steady: &mut HashMap<(usize, TpchQuery), String>,
    ) -> Result<()> {
        let fed = &bench.setup.feds[pair.fed];
        let client = &bench.clients[pair.fed];
        let sql = pair.query.sql();
        let id = REPLAY_ID_BASE + self.queries as u64;
        // The replay goes first, so it meets the consultation-cache state
        // an untraced submission would meet at this point of the round.
        let (stages, replayed) = replay(
            &fed.cluster,
            &fed.catalog,
            &bench.workload.xdb_options(),
            sql,
            id,
        )?;
        self.checks.push((
            pair,
            fed.catalog.profiles_snapshot(),
            stages.fingerprint.clone(),
        ));

        fed.cluster.ledger.clear();
        let jobs0 = reactor::jobs_spawned();
        let t0 = Instant::now();
        let out = client.submit(sql)?;
        let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let jobs = reactor::jobs_spawned() - jobs0;
        let records = fed.cluster.ledger.snapshot();
        let data: Vec<_> = records.iter().filter(|t| is_data(t)).collect();

        let t0 = Instant::now();
        let local = bench.oracle.query(pair.query)?;
        let local_ms = t0.elapsed().as_secs_f64() * 1e3;

        let submitted = plan_fingerprint(&out.delegation);
        let what = format!("{} on {}", pair.query.name(), fed.dist.name());
        if submitted != stages.fingerprint {
            self.mismatches
                .push(format!("{what}: replayed plan differs from Xdb::submit's"));
        }
        if out.relation != replayed {
            self.mismatches.push(format!(
                "{what}: replayed result differs from Xdb::submit's"
            ));
        }
        if !same_result(&out.relation, bench.oracle.answer(pair.query)) {
            self.mismatches.push(format!("{what}: wrong result"));
        }
        let last = steady
            .entry((pair.fed, pair.query))
            .or_insert_with(|| submitted.clone());
        if *last != submitted {
            self.plan_changes += 1;
            *last = submitted;
        }

        self.queries += 1;
        self.submit_ms += submit_ms;
        self.residual_ms += submit_ms - stages.staged_ms();
        self.local_ms += local_ms;
        self.rows_out += local.len() as f64;
        self.transfers += data.len() as f64;
        self.raw_bytes += data.iter().map(|t| t.bytes as f64).sum::<f64>();
        self.encoded_bytes += data_encoded_bytes(&records) as f64;
        self.reactor_jobs += jobs as f64;
        self.spans += out.trace.spans.len() as f64;
        self.stages.push(stages);
        Ok(())
    }

    fn metrics(&self, untraced_call_ms: f64) -> Vec<Metric> {
        let probes: f64 = self.stages.iter().map(|s| s.cache_probes as f64).sum();
        let hits: f64 = self.stages.iter().map(|s| s.cache_hits as f64).sum();
        let adm = self.admissions.max(1.0);
        vec![
            Metric::new("sql.parse_ms", "ms", self.stage_mean(|s| s.parse_ms)),
            Metric::new("sql.bind_ms", "ms", self.stage_mean(|s| s.bind_ms)),
            Metric::new("sql.optimize_ms", "ms", self.stage_mean(|s| s.optimize_ms)),
            Metric::new(
                "sql.plan_nodes",
                "count",
                self.stage_mean(|s| s.plan_nodes as f64),
            ),
            Metric::new("core.consult_ms", "ms", self.stage_mean(|s| s.consult_ms)),
            Metric::new("core.annotate_ms", "ms", self.stage_mean(|s| s.annotate_ms)),
            Metric::new(
                "core.annotate.consults",
                "count",
                self.stage_mean(|s| s.consults as f64),
            ),
            Metric::new(
                "core.annotate.cache_hit_ratio",
                "ratio",
                if probes > 0.0 { hits / probes } else { 0.0 },
            ),
            Metric::new(
                "core.annotate.plan_changes",
                "count",
                self.plan_changes as f64,
            ),
            Metric::new("core.script_ms", "ms", self.stage_mean(|s| s.script_ms)),
            Metric::new("core.deploy_ms", "ms", self.stage_mean(|s| s.deploy_ms)),
            Metric::new(
                "core.ddl_statements",
                "count",
                self.stage_mean(|s| s.ddl_statements as f64),
            ),
            Metric::new("core.pipeline_ms", "ms", self.stage_mean(|s| s.pipeline_ms)),
            Metric::new("core.cleanup_ms", "ms", self.stage_mean(|s| s.cleanup_ms)),
            Metric::new(
                "core.client.submit_ms",
                "ms",
                self.per_query(self.submit_ms),
            ),
            Metric::new(
                "core.client.residual_ms",
                "ms",
                self.per_query(self.residual_ms),
            ),
            Metric::new("core.session.fold_hits", "count", self.fold_hits / adm),
            Metric::new(
                "core.session.fragments_deployed",
                "count",
                self.fragments_deployed / adm,
            ),
            Metric::new(
                "core.session.plan_cache_hits",
                "count",
                self.plan_cache_hits / adm,
            ),
            Metric::new(
                "core.session.consult_probes",
                "count",
                self.consult_probes / adm,
            ),
            Metric::new(
                "core.session.ddl_statements",
                "count",
                self.session_ddl / adm,
            ),
            Metric::new("engine.local_ms", "ms", self.per_query(self.local_ms)),
            Metric::new("engine.rows_out", "count", self.per_query(self.rows_out)),
            Metric::new("net.transfers", "count", self.per_query(self.transfers)),
            Metric::new("net.raw_kb", "KB", self.per_query(self.raw_bytes) / 1e3),
            Metric::new(
                "net.encoded_kb",
                "KB",
                self.per_query(self.encoded_bytes) / 1e3,
            ),
            Metric::new(
                "net.wire_ratio",
                "ratio",
                if self.raw_bytes > 0.0 {
                    self.encoded_bytes / self.raw_bytes
                } else {
                    1.0
                },
            ),
            Metric::new("net.encode_ms", "ms", self.stage_mean(|s| s.encode_ms)),
            Metric::new("net.decode_ms", "ms", self.stage_mean(|s| s.decode_ms)),
            Metric::new(
                "net.reactor_jobs",
                "count",
                self.per_query(self.reactor_jobs),
            ),
            Metric::new("obs.spans", "count", self.per_query(self.spans)),
            Metric::new(
                "trace.overhead_ms",
                "ms",
                mean(&self.traced_call_ms) - untraced_call_ms,
            ),
            Metric::new("trace.queries", "count", self.queries as f64),
        ]
    }
}

fn traced(args: &Args) -> Result<bool> {
    let w = args.workload;
    let (setup, _, _) = timed_setups(args, 1)?;
    let oracle = Oracle::new(&setup.tables, &w.queries())?;
    let bench = Bench::new(w, &setup, &oracle, args.seed);
    let round = bench.round(0);
    let warm = bench.warm_up(&round)?;
    let mut steady: HashMap<(usize, TpchQuery), String> = HashMap::new();
    match w {
        Workload::Tenants => {
            for (q, fp) in w.queries().into_iter().zip(&warm.fingerprints) {
                steady.insert((0, q), fp.clone());
            }
        }
        _ => {
            for (call, fp) in round.iter().zip(&warm.fingerprints) {
                if let Call::Submit(p) = call {
                    steady.insert((p.fed, p.query), fp.clone());
                }
            }
        }
    }

    // One untraced round gives the per-call baseline for the overhead.
    bench.restore(&warm.profiles);
    let untraced = bench.run_round(&round);
    let untraced_call_ms = mean(&untraced.iter().map(|o| o.host_ms).collect::<Vec<_>>());
    let mut failed: usize = untraced.iter().map(|o| o.wrong).sum();

    let mut layers = Layers::default();
    let mut calls = 0usize;
    timed_rounds(&bench, &warm, args.seconds, 1, |call| {
        if calls.is_multiple_of(round.len()) {
            layers.checks.clear();
        }
        calls += 1;
        let t0 = Instant::now();
        match call {
            Call::Submit(pair) => layers.trace_query(&bench, *pair, &mut steady)?,
            Call::Window(window) => {
                let obs = bench.call(call);
                failed += obs.wrong;
                let report = obs
                    .report
                    .ok_or_else(|| EngineError::Unsupported("tenant window failed".into()))?;
                layers.admissions += obs.queries as f64;
                layers.fold_hits += report.fold_hits as f64;
                layers.fragments_deployed += report.fragments_deployed as f64;
                layers.plan_cache_hits += report.plan_cache_hits as f64;
                layers.consult_probes += report.consult_probes as f64;
                layers.session_ddl += report.ddl_statements as f64;
                for adm in window {
                    let pair = Pair {
                        fed: 0,
                        query: adm.query,
                    };
                    layers.trace_query(&bench, pair, &mut steady)?;
                }
            }
        }
        layers.traced_call_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        Ok(())
    })?;
    layers.check_plans(&bench)?;

    let metrics = layers.metrics(untraced_call_ms);
    print!(
        "{}",
        render_table(&format!("{} per layer", w.name()), &metrics)
    );
    for m in &layers.mismatches {
        println!("fidelity: {m}");
    }
    let attempted = layers.queries + untraced.iter().map(|o| o.queries).sum::<usize>();
    failed += layers.mismatches.len();
    let correct = failed == 0 && warm.wrong == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(layers.mismatches.is_empty())
}
