//! Property tests for composite hash-join keys: two-column Int/Date keys
//! take a packed `u128` fast path, and every join over them must be
//! observationally identical (same rows, same order, same Value variants)
//! to the generic `Value`-tuple path — for inner, semi and anti joins,
//! materialized and streamed probes, and any partition count.

use proptest::prelude::*;
use std::collections::HashMap;
use xdb_engine::exec::{
    project_columns, ExecRel, Execution, ScanOutput, ScanResolver, StreamedScan,
};
use xdb_engine::relation::Relation;
use xdb_engine::Result;
use xdb_sql::algebra::LogicalPlan;
use xdb_sql::ast::Expr;
use xdb_sql::value::{DataType, Value};

/// In-memory tables; with `chunk` set, the probe table `p` streams in
/// morsels of that many rows that keep the stored column layouts, as a
/// wire decoder does.
struct Tables {
    rels: HashMap<String, Relation>,
    chunk: Option<usize>,
}

impl ScanResolver for Tables {
    fn scan(&self, relation: &str, wanted: &[(String, DataType)]) -> Result<ScanOutput> {
        Ok(ScanOutput {
            relation: ExecRel::Owned(project_columns(&self.rels[relation], wanted)?),
            edge: None,
            remote: None,
        })
    }

    fn streams(&self, relation: &str) -> bool {
        self.chunk.is_some() && relation == "p"
    }

    fn scan_stream(
        &self,
        relation: &str,
        wanted: &[(String, DataType)],
        on_morsel: &mut xdb_engine::engine::MorselSink<'_>,
    ) -> Result<Option<StreamedScan>> {
        let Some(chunk) = self.chunk.filter(|_| relation == "p") else {
            return Ok(None);
        };
        let rel = project_columns(&self.rels[relation], wanted)?;
        for lo in (0..rel.len()).step_by(chunk) {
            let sel: Vec<u32> = (lo as u32..(lo + chunk).min(rel.len()) as u32).collect();
            let cols = rel.columns().iter().map(|c| c.gather(&sel)).collect();
            on_morsel(&Relation::from_columns(rel.fields.clone(), cols, sel.len()))?;
        }
        Ok(Some(StreamedScan {
            nrows: rel.len(),
            edge: None,
            remote: None,
        }))
    }
}

/// Key values per kind: NULL first, then the extremes, negatives and a few
/// small values. Tests index into a prefix, so short prefixes give heavy
/// duplicates.
fn key_value(int: bool, idx: usize) -> Value {
    const INTS: [i64; 7] = [i64::MIN, i64::MAX, -1, 0, 1, -7, 42];
    const DATES: [i32; 7] = [i32::MIN, i32::MAX, -1, 0, 1, 9000, 9001];
    match idx {
        0 => Value::Null,
        i if int => Value::Int(INTS[i - 1]),
        i => Value::Date(DATES[i - 1]),
    }
}

fn fields(k1: DataType, k2: DataType) -> Vec<(String, DataType)> {
    vec![
        ("k1".to_string(), k1),
        ("k2".to_string(), k2),
        ("tag".to_string(), DataType::Str),
        ("id".to_string(), DataType::Int),
    ]
}

fn kind(int: bool) -> DataType {
    if int {
        DataType::Int
    } else {
        DataType::Date
    }
}

fn table(kinds: (bool, bool), pool: usize, keys: &[(usize, usize)]) -> Relation {
    let rows = keys
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            vec![
                key_value(kinds.0, a % pool),
                key_value(kinds.1, b % pool),
                Value::str("t"),
                Value::Int(i as i64),
            ]
        })
        .collect();
    Relation::new(fields(kind(kinds.0), kind(kinds.1)), rows)
}

fn scan(name: &str, rel: &Relation) -> Box<LogicalPlan> {
    Box::new(LogicalPlan::Scan {
        relation: name.to_string(),
        alias: name.to_string(),
        fields: rel.fields.clone(),
    })
}

/// Equi-join keys `p.k1 = b.k1 AND p.k2 = b.k2`, plus — for the generic
/// reference — `p.tag = b.tag`, which always holds but makes the key
/// three columns wide and so forces the `Value`-tuple path.
fn keys(generic: bool) -> Vec<(Expr, Expr)> {
    let mut on: Vec<(Expr, Expr)> = ["k1", "k2"]
        .iter()
        .map(|c| (Expr::qcol("p", *c), Expr::qcol("b", *c)))
        .collect();
    if generic {
        on.push((Expr::qcol("p", "tag"), Expr::qcol("b", "tag")));
    }
    on
}

/// `op`: 0 inner join, 1 semi join, 2 anti join.
fn plan(op: usize, p: &Relation, b: &Relation, generic: bool) -> LogicalPlan {
    let (left, right, on) = (scan("p", p), scan("b", b), keys(generic));
    match op {
        0 => LogicalPlan::Join {
            left,
            right,
            on,
            residual: None,
        },
        _ => LogicalPlan::SemiJoin {
            left,
            right,
            on,
            residual: None,
            negated: op == 2,
        },
    }
}

fn run(tables: &Tables, plan: &LogicalPlan, partitions: usize) -> Relation {
    let mut exec = Execution::new(tables);
    exec.partitions = partitions;
    exec.run(plan).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packed two-column keys match the generic path cell for cell. With
    /// `tile`, the probe side repeats past the executor's parallel
    /// threshold so partition counts above one run the partitioned join.
    #[test]
    fn packed_pair_keys_match_generic_keys(
        kinds in (any::<bool>(), any::<bool>()),
        pool in 2usize..9,
        build in prop::collection::vec((0usize..64, 0usize..64), 0..40),
        probe in prop::collection::vec((0usize..64, 0usize..64), 0..40),
        tile in any::<bool>(),
        chunk in 1usize..50,
    ) {
        let mut probe = probe;
        if tile && !probe.is_empty() {
            probe = probe.iter().copied().cycle().take(4200).collect();
        }
        let (p, b) = (table(kinds, pool, &probe), table(kinds, pool, &build));
        let rels: HashMap<String, Relation> =
            [("p".to_string(), p.clone()), ("b".to_string(), b.clone())].into();
        let materialized = Tables { rels: rels.clone(), chunk: None };
        let streamed = Tables { rels, chunk: Some(chunk) };
        for op in 0..3 {
            let want = run(&materialized, &plan(op, &p, &b, true), 1);
            for tables in [&materialized, &streamed] {
                for partitions in [1usize, 2, 8] {
                    let got = run(tables, &plan(op, &p, &b, false), partitions);
                    prop_assert_eq!(
                        &got, &want,
                        "op {} streamed {} partitions {}",
                        op, tables.chunk.is_some(), partitions
                    );
                }
            }
        }
    }
}

/// An Int ⋈ Float component is not a packed shape: the composite key goes
/// through the generic path, whose `Value` equality matches 1 with 1.0.
#[test]
fn int_float_composite_key_matches_across_types() {
    let p = Relation::new(
        vec![
            ("k1".to_string(), DataType::Int),
            ("k2".to_string(), DataType::Int),
        ],
        vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3), Value::Int(4)],
            vec![Value::Null, Value::Int(2)],
        ],
    );
    let b = Relation::new(
        vec![
            ("k1".to_string(), DataType::Float),
            ("k2".to_string(), DataType::Int),
        ],
        vec![
            vec![Value::Float(1.0), Value::Int(2)],
            vec![Value::Float(3.5), Value::Int(4)],
            vec![Value::Float(1.0), Value::Int(2)],
        ],
    );
    let rels: HashMap<String, Relation> =
        [("p".to_string(), p.clone()), ("b".to_string(), b.clone())].into();
    for chunk in [None, Some(1)] {
        let tables = Tables {
            rels: rels.clone(),
            chunk,
        };
        let joined = run(&tables, &plan(0, &p, &b, false), 1);
        assert_eq!(joined.len(), 2, "streamed {}", chunk.is_some());
        for i in 0..2 {
            assert_eq!(joined.value(i, 0), Value::Int(1));
            assert_eq!(joined.value(i, 2), Value::Float(1.0));
        }
        let semi = run(&tables, &plan(1, &p, &b, false), 1);
        assert_eq!(semi.len(), 1);
        let anti = run(&tables, &plan(2, &p, &b, false), 1);
        assert_eq!(anti.len(), 2);
    }
}
