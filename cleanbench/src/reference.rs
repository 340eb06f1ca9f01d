//! Independent references the measured outputs are checked against. They
//! are computed once per run, outside the timed region.

use cleanm_core::ops::dedup::extract_pairs;
use cleanm_core::quality::select_best_repairs;
use cleanm_core::CleaningReport;
use cleanm_text::Metric;
use cleanm_values::Table;

/// The violation outcome of a report, in a comparable form: sorted
/// violating row ids, sorted duplicate pairs and sorted term repairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub ids: Vec<i64>,
    pub pairs: Vec<(i64, i64)>,
    pub repairs: Vec<(String, String)>,
}

impl Fingerprint {
    pub fn of(report: &CleaningReport) -> Self {
        let mut ids = report.violating_ids.clone();
        ids.sort_unstable();
        let mut repairs: Vec<(String, String)> = report
            .repairs
            .iter()
            .map(|r| (r.term.clone(), r.suggestion.clone()))
            .collect();
        repairs.sort();
        Fingerprint {
            ids,
            pairs: extract_pairs(report),
            repairs,
        }
    }
}

/// What a clean table still shows: violating ids, duplicate pairs, and
/// terms whose best dictionary candidate is another term.
pub fn remaining_violations(report: &CleaningReport) -> usize {
    let updates = select_best_repairs(&report.repairs, Metric::Levenshtein)
        .iter()
        .filter(|(term, best)| term != best)
        .count();
    report.violations() + extract_pairs(report).len() + updates
}

/// Rule ψ by brute force: distinct `(t1, t2)` pairs with
/// `t1.price < cap ∧ t1.price < t2.price ∧ t1.discount > t2.discount`.
/// NULL or non-numeric cells never satisfy a comparison.
pub fn psi_violations(table: &Table, cap: f64) -> usize {
    let price = table
        .schema
        .index_of("extendedprice")
        .expect("price column");
    let discount = table.schema.index_of("discount").expect("discount column");
    let cells: Vec<Option<(f64, f64)>> = table
        .rows
        .iter()
        .map(|r| {
            let v = r.values();
            Some((v[price].as_float().ok()?, v[discount].as_float().ok()?))
        })
        .collect();
    let mut count = 0;
    for (i, t1) in cells.iter().enumerate() {
        let Some((p1, d1)) = *t1 else { continue };
        if p1 >= cap {
            continue;
        }
        for (j, t2) in cells.iter().enumerate() {
            let Some((p2, d2)) = *t2 else { continue };
            if i != j && p1 < p2 && d1 > d2 {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_values::{DataType, Row, Schema, Value};

    #[test]
    fn report_with_one_violating_id_altered_is_flagged() {
        use cleanm_core::physical::EngineProfile;
        use cleanm_core::CleanDb;
        let schema = Schema::of([("address", DataType::Str), ("nationkey", DataType::Int)]);
        let row = |a: &str, n: i64| Row::new(vec![Value::str(a), Value::Int(n)]);
        let table = Table::new(
            schema,
            vec![
                row("a st", 1),
                row("b st", 2),
                row("a st", 3),
                row("c st", 4),
            ],
        );
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("customer", table);
        let report = db
            .run("SELECT * FROM customer c FD(c.address | c.nationkey)")
            .expect("fd query");
        let reference = Fingerprint::of(&report);
        assert_eq!(reference.ids, vec![0, 2]);
        assert_eq!(remaining_violations(&report), 2);
        assert_eq!(Fingerprint::of(&report.clone()), reference);
        let mut altered = report;
        altered.violating_ids[0] = 3;
        assert_ne!(Fingerprint::of(&altered), reference);
    }

    #[test]
    fn psi_brute_force_counts_pairs() {
        let schema = Schema::of([
            ("extendedprice", DataType::Float),
            ("discount", DataType::Float),
        ]);
        let row = |p: f64, d: Value| Row::new(vec![Value::Float(p), d]);
        let table = Table::new(
            schema,
            vec![
                row(1.0, Value::Float(0.09)),
                row(2.0, Value::Float(0.01)),
                row(3.0, Value::Float(0.05)),
                row(0.5, Value::Null),
            ],
        );
        // t1 = row 0 (price 1 < cap 1.5) beats rows 1 and 2 on discount.
        assert_eq!(psi_violations(&table, 1.5), 2);
        // Raising the cap admits row 1 as t1: no cheaper-discount partner.
        assert_eq!(psi_violations(&table, 2.5), 2);
        assert_eq!(psi_violations(&table, 0.1), 0);
    }
}
