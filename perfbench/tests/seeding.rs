//! The seed alone decides the benchmark's inputs and simulated figures.

use xdb_perfbench::{
    data_digest, data_encoded_bytes, setup, tenant_round, Bench, Oracle, Workload,
};

/// Simulated latencies, encoded data bytes and result digests of one
/// steady `small-mix` round, plus the digest of the generated data.
fn steady_round(seed: u64) -> (Vec<f64>, u64, Vec<u64>, u64) {
    let w = Workload::SmallMix;
    let setup = setup(w, seed).unwrap();
    let oracle = Oracle::new(&setup.tables, &w.queries()).unwrap();
    let bench = Bench::new(w, &setup, &oracle, seed);
    let round = bench.round(0);
    let warm = bench.warm_up(&round).unwrap();
    assert!(warm.steady, "plans did not settle for seed {seed}");
    bench.restore(&warm.profiles);
    let obs = bench.run_round(&round);
    assert_eq!(obs.iter().map(|o| o.wrong).sum::<usize>(), 0);
    let sims = obs.iter().flat_map(|o| o.sim_ms.clone()).collect();
    let bytes = obs.iter().map(|o| o.data_bytes).sum();
    let digests = obs.iter().flat_map(|o| o.digests.clone()).collect();
    (sims, bytes, digests, data_digest(&setup.tables))
}

#[test]
fn same_seed_same_figures_other_seed_other_data() {
    let a = steady_round(7);
    let b = steady_round(7);
    assert_eq!(a.0, b.0, "simulated latencies differ for one seed");
    assert_eq!(a.1, b.1, "encoded data bytes differ for one seed");
    assert_eq!(a.2, b.2, "result digests differ for one seed");
    assert_eq!(a.3, b.3, "generated data differs for one seed");
    assert!(a.1 > 0);

    let c = setup(Workload::SmallMix, 8).unwrap();
    assert_ne!(
        a.3,
        data_digest(&c.tables),
        "another seed gave the same data"
    );
}

#[test]
fn tenant_mix_follows_the_seed() {
    let names = |seed, index| -> Vec<String> {
        tenant_round(5, seed, index)
            .iter()
            .flatten()
            .map(|a| format!("{} {}", a.tenant, a.query.name()))
            .collect()
    };
    assert_eq!(names(3, 1), names(3, 1));
    assert_ne!(names(3, 1), names(4, 1));
    assert_ne!(names(3, 1), names(3, 2));
    // Every window, whatever the seed and round: ten hot admissions plus
    // each paper query once.
    for (seed, index) in [(3, 0), (3, 1), (4, 7)] {
        for window in tenant_round(15, seed, index) {
            assert_eq!(window.len(), 16);
            for q in xdb_tpch::TpchQuery::ALL {
                let n = window.iter().filter(|a| a.query == q).count();
                let want = if q == xdb_tpch::TpchQuery::ALL[0] {
                    11
                } else {
                    1
                };
                assert_eq!(n, want, "{} in a window", q.name());
            }
        }
    }
}

#[test]
fn control_messages_are_not_data() {
    let w = Workload::SmallMix;
    let setup = setup(w, 1).unwrap();
    let fed = &setup.feds[0];
    let xdb = xdb_core::Xdb::new(&fed.cluster, &fed.catalog);
    fed.cluster.ledger.clear();
    xdb.submit(xdb_tpch::TpchQuery::Q3.sql()).unwrap();
    let records = fed.cluster.ledger.snapshot();
    let control: u64 = records
        .iter()
        .filter(|t| t.purpose == xdb_net::Purpose::ControlMessage)
        .map(|t| t.encoded_bytes)
        .sum();
    assert!(control > 0);
    assert_eq!(
        data_encoded_bytes(&records),
        fed.cluster.ledger.total_encoded_bytes() - control
    );
}
