//! Host-clock end-to-end benchmark of the XDB pipeline.
//!
//! Builds seeded TPC-H federations, drives closed-loop workloads through
//! the public API (`Xdb::submit`, `QueryServer::run`) with one client
//! thread, checks every result against a single-engine oracle, and
//! reports host-time and simulated-time metrics. A separate traced run
//! ([`replay`]) replays every query stage by stage through the public
//! functions of each layer and times each call from outside.
//!
//! Every input — the generated tables and the tenant draws — is derived
//! from the seed, so one seed always yields the same data, the same mix
//! and the same simulated figures.

pub mod replay;
pub mod stats;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use xdb_core::annotate::plan_fingerprint;
use xdb_core::{
    CostProfiles, GlobalCatalog, QueryServer, SessionOptions, SessionReport, Submission, Xdb,
    XdbOptions,
};
use xdb_engine::error::Result;
use xdb_engine::profile::EngineProfile;
use xdb_engine::relation::Relation;
use xdb_engine::Cluster;
use xdb_net::{NodeId, Purpose, Topology, Transfer};
use xdb_sql::value::Value;
use xdb_tpch::{TableDist, TpchGen, TpchQuery, TpchTable, NODES};

/// The node the middleware and its tenants are accounted on.
pub const CLIENT_NODE: &str = "cloud";
/// The oracle's single engine.
const ORACLE_NODE: &str = "solo";
/// Relative tolerance for float cells: XDB's join order changes float
/// summation order, so sums may differ from the oracle in the last bits.
pub const FLOAT_REL_TOL: f64 = 1e-9;
/// Admissions per `QueryServer::run` call in the `tenants` workload.
pub const TENANT_WINDOW: usize = 16;
/// Windows per round of the `tenants` workload.
pub const TENANT_WINDOWS_PER_ROUND: usize = 15;
/// Hot-query admissions per tenant window, besides one of each query.
pub const HOT_PER_WINDOW: usize = TENANT_WINDOW - TpchQuery::ALL.len();
/// Least number of calls a timed phase makes, so that the 95th
/// percentile has at least ten samples above it.
pub const MIN_CALLS: usize = 220;
/// Warm-up gives up after this many rounds without a stable round.
pub const MAX_WARMUP_ROUNDS: usize = 12;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's six queries over TD1–TD3 at sf 0.05: data-proportional
    /// layers (operators, codec, reactor) do most of the work.
    Analytic,
    /// The paper's six plus the extended six over TD1–TD3 at sf 0.002:
    /// fixed per-query costs (planning, DDL, hand-offs) dominate.
    SmallMix,
    /// A skewed multi-tenant TD1 mix at sf 0.005 through `QueryServer`
    /// with folding on.
    Tenants,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Analytic, Workload::SmallMix, Workload::Tenants];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Analytic => "analytic",
            Workload::SmallMix => "small-mix",
            Workload::Tenants => "tenants",
        }
    }

    pub fn scale(self) -> f64 {
        match self {
            Workload::Analytic => 0.05,
            Workload::SmallMix => 0.002,
            Workload::Tenants => 0.005,
        }
    }

    pub fn dists(self) -> &'static [TableDist] {
        match self {
            Workload::Tenants => &[TableDist::Td1],
            _ => &TableDist::ALL,
        }
    }

    pub fn queries(self) -> Vec<TpchQuery> {
        match self {
            Workload::SmallMix => TpchQuery::ALL
                .into_iter()
                .chain(TpchQuery::EXTENDED)
                .collect(),
            _ => TpchQuery::ALL.to_vec(),
        }
    }

    /// How many times one run sets the federation up; `setup_s` is the
    /// median of these.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Analytic => 3,
            _ => 15,
        }
    }
}

// ------------------------------------------------------------------ rng

/// Deterministic xorshift64* stream seeded through splitmix64, so every
/// seed (0 included) gives a well-mixed, non-zero state.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let x = &mut self.0;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The TPC-H generator seed a benchmark seed maps to.
pub fn data_seed(seed: u64) -> u64 {
    Rng::new(seed, 1).next_u64()
}

// ------------------------------------------------------------ federation

/// One TPC-H federation: seven PostgreSQL-profile engines on a LAN plus
/// the client's cloud node, tables placed by `dist`.
pub struct Federation {
    pub dist: TableDist,
    pub cluster: Cluster,
    pub catalog: GlobalCatalog,
}

/// Everything a workload runs against.
pub struct Setup {
    pub tables: Vec<(TpchTable, Relation)>,
    pub feds: Vec<Federation>,
}

/// Generate all eight TPC-H tables at `scale` from `seed`.
pub fn generate(scale: f64, seed: u64) -> Vec<(TpchTable, Relation)> {
    let gen = TpchGen::with_seed(scale, data_seed(seed));
    TpchTable::ALL
        .into_iter()
        .map(|t| (t, gen.table(t)))
        .collect()
}

/// Load `tables` into a fresh federation laid out by `dist` and discover
/// its global catalog.
pub fn federation(dist: TableDist, tables: &[(TpchTable, Relation)]) -> Result<Federation> {
    let mut cluster = Cluster::new(Topology::lan(&NODES));
    for node in NODES {
        cluster.add_engine(node, EngineProfile::postgres());
    }
    for (table, rel) in tables {
        cluster
            .engine(dist.node_of(*table))?
            .load_table(table.name(), rel.clone())?;
    }
    cluster.topology.add_cloud_node(NodeId::new(CLIENT_NODE));
    let catalog = GlobalCatalog::discover(&cluster)?;
    Ok(Federation {
        dist,
        cluster,
        catalog,
    })
}

/// Seeded data generation + load + catalog discovery for every
/// federation of the workload — the work `setup_s` times.
pub fn setup(workload: Workload, seed: u64) -> Result<Setup> {
    let tables = generate(workload.scale(), seed);
    let feds = workload
        .dists()
        .iter()
        .map(|d| federation(*d, &tables))
        .collect::<Result<Vec<_>>>()?;
    Ok(Setup { tables, feds })
}

/// The single-engine oracle: the same seeded tables on one node.
pub struct Oracle {
    pub cluster: Cluster,
    answers: HashMap<TpchQuery, Relation>,
}

impl Oracle {
    pub fn new(tables: &[(TpchTable, Relation)], queries: &[TpchQuery]) -> Result<Oracle> {
        let cluster = Cluster::lan(&[ORACLE_NODE], EngineProfile::postgres());
        for (table, rel) in tables {
            cluster
                .engine(ORACLE_NODE)?
                .load_table(table.name(), rel.clone())?;
        }
        let mut answers = HashMap::new();
        for q in queries {
            answers.insert(*q, cluster.query(ORACLE_NODE, q.sql())?.0);
        }
        Ok(Oracle { cluster, answers })
    }

    pub fn answer(&self, q: TpchQuery) -> &Relation {
        &self.answers[&q]
    }

    /// Run `q` on the oracle's engine (the traced run times this).
    pub fn query(&self, q: TpchQuery) -> Result<Relation> {
        Ok(self.cluster.query(ORACLE_NODE, q.sql())?.0)
    }
}

/// Exact cells, floats at a relative [`FLOAT_REL_TOL`].
pub fn same_result(got: &Relation, want: &Relation) -> bool {
    if got.len() != want.len() || got.width() != want.width() {
        return false;
    }
    (0..got.width()).all(|c| {
        (0..got.len()).all(|r| match (got.value(r, c), want.value(r, c)) {
            (Value::Float(a), Value::Float(b)) => {
                a == b || (a - b).abs() <= FLOAT_REL_TOL * a.abs().max(b.abs())
            }
            (a, b) => a == b,
        })
    })
}

fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Order-sensitive FNV-1a digest of every cell of a relation.
pub fn relation_digest(rel: &Relation) -> u64 {
    let mut h = FNV_OFFSET;
    let mut cell = String::new();
    for r in 0..rel.len() {
        for c in 0..rel.width() {
            cell.clear();
            let _ = write!(cell, "{:?}|", rel.value(r, c));
            h = fnv1a64(cell.as_bytes(), h);
        }
    }
    h
}

/// Digest of every generated table, in table order.
pub fn data_digest(tables: &[(TpchTable, Relation)]) -> u64 {
    tables.iter().fold(FNV_OFFSET, |h, (t, rel)| {
        fnv1a64(
            &relation_digest(rel).to_le_bytes(),
            fnv1a64(t.name().as_bytes(), h),
        )
    })
}

/// Whether a ledger record carries query data (pipeline, materialization,
/// final result). Control messages are left out: their size depends on
/// the decimal width of the process-global query id.
pub fn is_data(t: &Transfer) -> bool {
    matches!(
        t.purpose,
        Purpose::InterDbmsPipeline | Purpose::Materialization | Purpose::FinalResult
    )
}

/// Encoded wire bytes of the data records of a ledger snapshot.
pub fn data_encoded_bytes(records: &[Transfer]) -> u64 {
    records
        .iter()
        .filter(|t| is_data(t))
        .map(|t| t.encoded_bytes)
        .sum()
}

// --------------------------------------------------------------- rounds

/// One `Xdb::submit` of the single-client workloads.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    pub fed: usize,
    pub query: TpchQuery,
}

/// One round: every query in turn, each round-robin over the
/// federations. The order is fixed — what a call costs depends on the
/// calls before it (consultation cache, learned profiles) — so the seed
/// changes only the data.
pub fn pair_round(workload: Workload, n_feds: usize) -> Vec<Pair> {
    workload
        .queries()
        .into_iter()
        .flat_map(|query| (0..n_feds).map(move |fed| Pair { fed, query }))
        .collect()
}

/// One tenant admission.
#[derive(Debug, Clone)]
pub struct Admission {
    pub tenant: String,
    pub query: TpchQuery,
}

/// The seeded skewed tenant mix of one round: `windows` windows of
/// [`TENANT_WINDOW`] admissions. Like `repro tenants`, the mix is skewed
/// twice: tenant identity is zipf-ish (the smaller of two uniform draws)
/// and most admissions replay the hot query (the paper's Q3). Every
/// window holds the same queries — [`HOT_PER_WINDOW`] hot ones plus each
/// of the six paper queries once (62.5% hot) — and the seed and the
/// round's index draw their order and the tenants. So every round runs
/// the same work, only the order in which folding meets it changes, and
/// a run spreads over many orders.
pub fn tenant_round(windows: usize, seed: u64, index: usize) -> Vec<Vec<Admission>> {
    let mut rng = Rng::new(seed, 3 + index as u64);
    let all = TpchQuery::ALL;
    (0..windows)
        .map(|_| {
            let mut queries: Vec<TpchQuery> = std::iter::repeat_n(all[0], HOT_PER_WINDOW)
                .chain(all)
                .collect();
            rng.shuffle(&mut queries);
            queries
                .into_iter()
                .map(|query| {
                    let a = rng.below(TENANT_WINDOW);
                    let b = rng.below(TENANT_WINDOW);
                    Admission {
                        tenant: format!("tenant-{:02}", a.min(b)),
                        query,
                    }
                })
                .collect()
        })
        .collect()
}

/// The `QueryServer` configuration of the `tenants` workload.
pub fn session_options() -> SessionOptions {
    SessionOptions {
        xdb: XdbOptions::default(),
        fold: true,
        window: TENANT_WINDOW,
    }
}

impl Workload {
    /// Middleware options of the workload's client. `small-mix` runs the
    /// defaults, learned cost profiles included. `tenants` uses the
    /// server's own options (profiles frozen, so nothing the traced
    /// replay does can move the server's plans). `analytic` freezes the
    /// profiles too: fed back, they settle on different plans for
    /// different data seeds (e.g. TD2 Q10 moving 2.3 MB or 0.7 MB), which
    /// would swamp every data-proportional figure with plan choice.
    pub fn xdb_options(self) -> XdbOptions {
        XdbOptions {
            freeze_profiles: self != Workload::SmallMix,
            ..XdbOptions::default()
        }
    }
}

// ---------------------------------------------------------------- calls

/// What one call observed.
#[derive(Debug, Clone, Default)]
pub struct CallObs {
    /// Host (wall) time of the call.
    pub host_ms: f64,
    /// Process CPU time of the call, all threads.
    pub cpu_ms: f64,
    /// Simulated latency of every query the call answered.
    pub sim_ms: Vec<f64>,
    /// Result digest of every query the call answered.
    pub digests: Vec<u64>,
    /// Plan fingerprint (single-client workloads only).
    pub fingerprint: Option<String>,
    /// Encoded data bytes on the wire.
    pub data_bytes: u64,
    /// Queries answered (1, or the window's admissions).
    pub queries: usize,
    /// Queries that failed or returned a wrong result.
    pub wrong: usize,
    /// The window's session report without its outcomes (`tenants` only).
    pub report: Option<SessionReport>,
}

/// A workload bound to its federations, clients and oracle.
pub struct Bench<'a> {
    pub workload: Workload,
    pub setup: &'a Setup,
    pub oracle: &'a Oracle,
    pub clients: Vec<Xdb<'a>>,
    pub servers: Vec<QueryServer<'a>>,
    pub seed: u64,
}

impl<'a> Bench<'a> {
    pub fn new(workload: Workload, setup: &'a Setup, oracle: &'a Oracle, seed: u64) -> Bench<'a> {
        let options = workload.xdb_options();
        let clients = setup
            .feds
            .iter()
            .map(|f| {
                Xdb::new(&f.cluster, &f.catalog)
                    .with_options(options.clone())
                    .with_client_node(CLIENT_NODE)
            })
            .collect();
        let servers = match workload {
            Workload::Tenants => setup
                .feds
                .iter()
                .map(|f| {
                    QueryServer::new(&f.cluster, &f.catalog, session_options())
                        .with_client_node(CLIENT_NODE)
                })
                .collect(),
            _ => Vec::new(),
        };
        Bench {
            workload,
            setup,
            oracle,
            clients,
            servers,
            seed,
        }
    }

    /// The calls of round `index` (warm-up repeats round 0; the timed
    /// rounds count from 1).
    pub fn round(&self, index: usize) -> Vec<Call> {
        match self.workload {
            Workload::Tenants => tenant_round(TENANT_WINDOWS_PER_ROUND, self.seed, index)
                .into_iter()
                .map(Call::Window)
                .collect(),
            _ => pair_round(self.workload, self.setup.feds.len())
                .into_iter()
                .map(Call::Submit)
                .collect(),
        }
    }

    /// Make one call and check its results. Only the call itself is
    /// timed; ledger reset and checking happen outside the timer.
    pub fn call(&self, call: &Call) -> CallObs {
        match call {
            Call::Submit(pair) => self.submit(*pair),
            Call::Window(window) => self.window(window),
        }
    }

    fn submit(&self, pair: Pair) -> CallObs {
        let fed = &self.setup.feds[pair.fed];
        fed.cluster.ledger.clear();
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        let res = self.clients[pair.fed].submit(pair.query.sql());
        let host_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = process_cpu_ms() - c0;
        let mut obs = CallObs {
            host_ms,
            cpu_ms,
            queries: 1,
            ..CallObs::default()
        };
        match res {
            Ok(out) => {
                if !same_result(&out.relation, self.oracle.answer(pair.query)) {
                    obs.wrong = 1;
                }
                obs.sim_ms.push(out.breakdown.total_ms());
                obs.digests.push(relation_digest(&out.relation));
                obs.fingerprint = Some(plan_fingerprint(&out.delegation));
                obs.data_bytes = data_encoded_bytes(&fed.cluster.ledger.snapshot());
            }
            Err(e) => {
                eprintln!("{} on {}: {e}", pair.query.name(), fed.dist.name());
                obs.wrong = 1;
            }
        }
        obs
    }

    fn window(&self, window: &[Admission]) -> CallObs {
        let fed = &self.setup.feds[0];
        let subs: Vec<Submission> = window
            .iter()
            .map(|a| Submission::new(a.tenant.clone(), a.query.sql()))
            .collect();
        fed.cluster.ledger.clear();
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        let res = self.servers[0].run(&subs);
        let host_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = process_cpu_ms() - c0;
        let mut obs = CallObs {
            host_ms,
            cpu_ms,
            queries: window.len(),
            ..CallObs::default()
        };
        match res {
            Ok(report) => {
                obs.data_bytes = data_encoded_bytes(&fed.cluster.ledger.snapshot());
                let mut answered = vec![false; window.len()];
                for o in &report.outcomes {
                    let Some(adm) = window.get(o.index) else {
                        continue;
                    };
                    answered[o.index] = true;
                    if o.tenant != adm.tenant
                        || !same_result(&o.relation, self.oracle.answer(adm.query))
                    {
                        obs.wrong += 1;
                    }
                    obs.sim_ms.push(o.latency_ms);
                    obs.digests.push(relation_digest(&o.relation));
                }
                obs.wrong += answered.iter().filter(|a| !**a).count();
                // Keep the counters only: holding every outcome (results,
                // traces, ledgers) would grow the benchmark's own memory
                // with the number of windows a run makes.
                obs.report = Some(SessionReport {
                    outcomes: Vec::new(),
                    ..report
                });
            }
            Err(e) => {
                eprintln!("tenant window: {e}");
                obs.wrong = window.len();
            }
        }
        obs
    }

    /// Plan fingerprints of one round, in round order: from the calls'
    /// own outcomes for single-client workloads, and through `Xdb::plan`
    /// with the server's options for `tenants` (whose outcomes carry no
    /// plan).
    pub fn fingerprints(&self, observed: &[CallObs]) -> Result<Vec<String>> {
        match self.workload {
            Workload::Tenants => self
                .workload
                .queries()
                .into_iter()
                .map(|q| Ok(plan_fingerprint(&self.clients[0].plan(q.sql())?.0)))
                .collect(),
            _ => Ok(observed
                .iter()
                .map(|o| o.fingerprint.clone().unwrap_or_default())
                .collect()),
        }
    }

    /// Make every call of a round; returns their observations.
    pub fn run_round(&self, round: &[Call]) -> Vec<CallObs> {
        round.iter().map(|c| self.call(c)).collect()
    }

    /// The learned cost profiles of every federation.
    pub fn profiles(&self) -> Vec<CostProfiles> {
        self.setup
            .feds
            .iter()
            .map(|f| f.catalog.profiles_snapshot())
            .collect()
    }

    /// Put every federation's learned profiles back to `profiles`.
    pub fn restore(&self, profiles: &[CostProfiles]) {
        for (f, p) in self.setup.feds.iter().zip(profiles) {
            f.catalog.set_profiles(p.clone());
        }
    }

    /// Warm up until a full round changes no plan fingerprint. The
    /// returned profiles are those the stable round started from:
    /// restoring them before every timed round replays that round, so
    /// timed rounds keep feeding the learned profiles (the default) yet
    /// run the same plans and carry the same sample counts run after
    /// run, however many rounds a run makes.
    pub fn warm_up(&self, round: &[Call]) -> Result<Warmup> {
        let mut prev: Option<Vec<String>> = None;
        let mut start = self.profiles();
        let mut wrong = 0;
        for rounds in 1..=MAX_WARMUP_ROUNDS {
            start = self.profiles();
            let observed = self.run_round(round);
            wrong += observed.iter().map(|o| o.wrong).sum::<usize>();
            let fps = self.fingerprints(&observed)?;
            if prev.as_ref() == Some(&fps) {
                return Ok(Warmup {
                    rounds,
                    steady: true,
                    fingerprints: fps,
                    profiles: start,
                    wrong,
                });
            }
            prev = Some(fps);
        }
        Ok(Warmup {
            rounds: MAX_WARMUP_ROUNDS,
            steady: false,
            fingerprints: prev.unwrap_or_default(),
            profiles: start,
            wrong,
        })
    }
}

/// One call of a round.
#[derive(Debug, Clone)]
pub enum Call {
    Submit(Pair),
    Window(Vec<Admission>),
}

/// Outcome of [`Bench::warm_up`].
#[derive(Debug, Clone)]
pub struct Warmup {
    pub rounds: usize,
    pub steady: bool,
    pub fingerprints: Vec<String>,
    pub profiles: Vec<CostProfiles>,
    pub wrong: usize,
}

/// Count positions where two rounds' fingerprints differ.
pub fn plan_changes(before: &[String], after: &[String]) -> usize {
    before.iter().zip(after).filter(|(a, b)| a != b).count() + before.len().abs_diff(after.len())
}

/// CPU time of this process (all threads) in ms. Time the hypervisor
/// steals from the guest is not charged to the process on kernels with
/// paravirtual steal accounting, so on a shared host this clock is far
/// steadier than the wall clock.
#[cfg(target_os = "linux")]
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Process CPU time (ms) of a fixed, benchmark-owned reference kernel:
/// sort 300k pseudo-random keys, then build and probe a hash table over
/// them. Nothing in it comes from the program under test. Host-time
/// metrics are reported in units of this kernel's CPU time measured in
/// the same run: a shared host's speed drifts by 20% and more over
/// minutes (cache and memory-bandwidth contention from neighbours, which
/// the CPU clock still charges), and the drift moves the kernel and the
/// workload together.
pub fn reference_kernel_ms() -> f64 {
    let c0 = process_cpu_ms();
    let mut rng = Rng::new(0, 0);
    let mut keys: Vec<u64> = (0..300_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let table: HashMap<u64, usize> = keys
        .iter()
        .enumerate()
        .step_by(3)
        .map(|(i, k)| (k % 100_003, i))
        .collect();
    let hits = keys
        .iter()
        .filter_map(|k| table.get(&(k % 100_003)))
        .fold(0usize, |acc, i| acc.wrapping_add(*i));
    std::hint::black_box(hits);
    process_cpu_ms() - c0
}

/// `VmHWM` of this process in MB, if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
