//! The four workloads. Each one makes its inputs from the seed and runs the
//! three operations a user of the system waits for: a batch job from an
//! input file, a standing-query refresh after an append, and a repair that
//! ends at a verified-clean table.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cleanm_core::algebra::{lower_op, rewrite_shared};
use cleanm_core::calculus::desugar::DesugaredOp;
use cleanm_core::calculus::{desugar_query, normalize};
use cleanm_core::ops::dedup::extract_pairs;
use cleanm_core::ops::{DcOutcome, InequalityDc};
use cleanm_core::physical::EngineProfile;
use cleanm_core::quality::{dedup_accuracy, select_best_repairs, term_validation_accuracy};
use cleanm_core::{parse_query, CleanDb, CleaningReport};
use cleanm_datagen::customer::{CustomerData, CustomerGen};
use cleanm_datagen::dblp::DblpGen;
use cleanm_datagen::tpch::{LineitemGen, NoiseColumn};
use cleanm_exec::ExecContext;
use cleanm_formats::{csv, flatten};
use cleanm_incr::{DcId, IncrementalSession, QueryId};
use cleanm_repair::RepairEngine;
use cleanm_text::Metric;
use cleanm_values::{Row, Schema, Table};

use crate::spans::Spans;

/// The engine seed every session uses (the `CleanDb` default).
const ENGINE_SEED: u64 = 42;

/// The standing FD + DEDUP query over customer.
const STANDING_CUSTOMER_SQL: &str = "SELECT * FROM customer c \
                                     FD(c.address | c.nationkey) \
                                     DEDUP(exact, LD, 0.8, c.address, c.name)";

/// Refresh steps per standing-query cycle; a repair closes each cycle.
pub const REFRESHES_PER_CYCLE: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DedupCustomer,
    RulesLineitem,
    StandingRepair,
    TermvalDblp,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::DedupCustomer,
        Kind::RulesLineitem,
        Kind::StandingRepair,
        Kind::TermvalDblp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DedupCustomer => "dedup_customer",
            Kind::RulesLineitem => "rules_lineitem",
            Kind::StandingRepair => "standing_repair",
            Kind::TermvalDblp => "termval_dblp",
        }
    }

    fn table_name(self) -> &'static str {
        match self {
            Kind::DedupCustomer | Kind::StandingRepair => "customer",
            Kind::RulesLineitem => "lineitem",
            Kind::TermvalDblp => "dblp",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Generator ground truth for the quality score.
enum Truth {
    /// Duplicate groups as row ids.
    Duplicates(Vec<Vec<i64>>),
    /// Dirty and clean author occurrences, aligned with the table rows.
    Terms {
        dirty: Vec<String>,
        clean: Vec<String>,
    },
    /// Row ids whose FD left-hand side was corrupted.
    Rows(Vec<i64>),
}

/// One workload: its queries and the datasets its operations rotate over.
pub struct Workload {
    pub kind: Kind,
    ctx: Arc<ExecContext>,
    /// The CleanM query every batch job runs.
    pub sql: String,
    /// The standing query refreshes maintain and repairs clean.
    pub standing_sql: String,
    table_name: &'static str,
    schema: Schema,
    pub datasets: Vec<Dataset>,
}

/// One generated input: the files batch jobs read, the rows a refresh cycle
/// appends, and the generator's ground truth.
pub struct Dataset {
    /// The CSV file batch jobs read (it holds `full`).
    input: PathBuf,
    dictionary: Option<Vec<String>>,
    /// Rule ψ, for the workload that checks it beside the SQL query.
    pub dc: Option<InequalityDc>,
    pub psi_cap: f64,
    /// The batch input; a refresh cycle ends with exactly these rows.
    pub full: Table,
    /// The first rows of `full`, registered when a cycle starts.
    base: Table,
    /// The remaining rows of `full`, one append per refresh.
    deltas: Vec<Table>,
    truth: Truth,
}

/// What a batch job produced, with the session it ran in.
pub struct JobOut {
    /// Index of the dataset the job read.
    pub dataset: usize,
    pub db: CleanDb,
    pub report: CleaningReport,
    pub dc: Option<DcOutcome>,
}

/// A standing query (and DC) being refreshed as deltas arrive.
pub struct Cycle {
    /// Index of the dataset the cycle appends.
    pub dataset: usize,
    incr: IncrementalSession,
    id: QueryId,
    dc_id: Option<DcId>,
    /// Deltas appended so far.
    pub step: usize,
}

impl Cycle {
    /// The standing session's cumulative plan-cache `(hits, misses)`.
    pub fn plan_cache_counters(&mut self) -> (u64, u64) {
        self.incr.db().plan_cache_counters()
    }
}

/// What one refresh produced.
pub struct RefreshOut {
    pub report: CleaningReport,
    pub dc: Option<DcOutcome>,
}

/// What one repair produced, with its phase times.
pub struct RepairOut {
    pub fixes: usize,
    pub rows_dropped: usize,
    pub unrepaired: usize,
    pub detect_ms: f64,
    pub plan_ms: f64,
    /// The refresh after applying the repairs.
    pub after: CleaningReport,
    pub dc_after: Option<DcOutcome>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f` in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Split `full` into a base and [`REFRESHES_PER_CYCLE`] deltas of
/// `delta_rows` rows each (the last rows of `full`).
fn base_and_deltas(full: &Table, delta_rows: usize) -> (Table, Vec<Table>) {
    let cut = full.rows.len() - delta_rows * REFRESHES_PER_CYCLE;
    let table = |rows: &[Row]| Table::new(full.schema.clone(), rows.to_vec());
    let deltas = full.rows[cut..].chunks(delta_rows).map(table).collect();
    (table(&full.rows[..cut]), deltas)
}

/// Generator duplicate groups (custkeys) as row ids of `data.table`.
fn duplicate_rowids(data: &CustomerData) -> Vec<Vec<i64>> {
    let key = data
        .table
        .schema
        .index_of("custkey")
        .expect("custkey column");
    let pos: HashMap<i64, i64> = data
        .table
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| (r.values()[key].as_int().expect("int custkey"), i as i64))
        .collect();
    data.duplicate_groups
        .iter()
        .map(|g| g.iter().map(|k| pos[k]).collect())
        .collect()
}

/// The ψ price cap: the 0.01% price quantile (at least the 9th cheapest).
fn psi_cap(table: &Table) -> f64 {
    let col = table
        .schema
        .index_of("extendedprice")
        .expect("price column");
    let mut prices: Vec<f64> = table
        .rows
        .iter()
        .map(|r| r.values()[col].as_float().expect("float price"))
        .collect();
    prices.sort_by(f64::total_cmp);
    prices[(prices.len() / 10_000).max(8).min(prices.len() - 1)]
}

/// Lineitem with φ noise (corrupted orderkeys) and ψ noise (out-of-pattern
/// discounts) on the same rows: two generator runs with one seed draw the
/// same rows and the same dirty set, and differ only in the noised column.
fn lineitem(seed: u64, rows: usize) -> Result<(Table, Vec<i64>), String> {
    let gen = LineitemGen::new(seed).rows(rows).base_rows(rows);
    let keyed = gen.clone().noise_column(NoiseColumn::OrderKey).generate();
    let discounted = gen.noise_column(NoiseColumn::Discount).generate();
    if keyed.corrupted_rows != discounted.corrupted_rows {
        return Err("lineitem noise runs picked different dirty rows".into());
    }
    let discount = keyed.table.schema.index_of("discount").map_err(err)?;
    let mut table = keyed.table;
    for &i in &keyed.corrupted_rows {
        let mut values = table.rows[i].values().to_vec();
        values[discount] = discounted.table.rows[i].values()[discount].clone();
        table.rows[i] = Row::new(values);
    }
    let truth = keyed.corrupted_rows.iter().map(|&i| i as i64).collect();
    Ok((table, truth))
}

impl Dataset {
    /// Generate dataset `index` from `seed` and write its files to `dir`.
    fn generate(kind: Kind, seed: u64, index: usize, dir: &Path) -> Result<Self, String> {
        let (full, truth, dictionary, delta_rows) = match kind {
            Kind::DedupCustomer => {
                let data = CustomerGen::new(seed)
                    .rows(1_500)
                    .duplicate_fraction(0.10)
                    .max_duplicates(50)
                    .fd_noise_fraction(0.02)
                    .generate();
                let truth = Truth::Duplicates(duplicate_rowids(&data));
                (data.table, truth, None, 50)
            }
            Kind::RulesLineitem => {
                let (table, corrupted) = lineitem(seed, 8_000)?;
                (table, Truth::Rows(corrupted), None, 400)
            }
            Kind::StandingRepair => {
                let data = CustomerGen::new(seed)
                    .rows(5_000)
                    .duplicate_fraction(0.05)
                    .max_duplicates(20)
                    .fd_noise_fraction(0.05)
                    .generate();
                let truth = Truth::Duplicates(duplicate_rowids(&data));
                (data.table, truth, None, 100)
            }
            Kind::TermvalDblp => {
                let data = DblpGen::new(seed)
                    .publications(120)
                    .dictionary_size(300)
                    .author_noise_fraction(0.10)
                    .edit_rate(0.20)
                    .generate();
                let flat = flatten::flatten(&data.table).map_err(err)?;
                let col = flat.schema.index_of("authors").map_err(err)?;
                let dirty: Vec<String> = flat
                    .rows
                    .iter()
                    .map(|r| r.values()[col].to_text())
                    .collect();
                let clean: Vec<String> = data.clean_authors.iter().flatten().cloned().collect();
                if dirty.len() != clean.len() {
                    return Err("flattened DBLP does not align with its ground truth".into());
                }
                let truth = Truth::Terms { dirty, clean };
                (flat, truth, Some(data.dictionary), 10)
            }
        };
        let table_name = kind.table_name();
        let input = dir.join(format!("{table_name}-{index}.csv"));
        csv::write_path(&input, &full, &csv::CsvOptions::default()).map_err(err)?;
        let (dc, psi_cap) = if kind == Kind::RulesLineitem {
            let cap = psi_cap(&full);
            (Some(InequalityDc::rule_psi(table_name, cap)), cap)
        } else {
            (None, 0.0)
        };
        let (base, deltas) = base_and_deltas(&full, delta_rows);
        Ok(Dataset {
            input,
            dictionary,
            dc,
            psi_cap,
            full,
            base,
            deltas,
            truth,
        })
    }

    pub fn rows(&self) -> u64 {
        self.full.rows.len() as u64
    }

    /// F1 of a report's findings against the generator's ground truth.
    pub fn quality_f1(&self, report: &CleaningReport) -> f64 {
        match &self.truth {
            Truth::Duplicates(groups) => dedup_accuracy(&extract_pairs(report), groups).f_score,
            Truth::Terms { dirty, clean } => {
                let best = select_best_repairs(&report.repairs, Metric::Levenshtein);
                term_validation_accuracy(dirty, clean, &best).f_score
            }
            Truth::Rows(rows) => {
                let truth: HashSet<i64> = rows.iter().copied().collect();
                let found: HashSet<i64> = report.violating_ids.iter().copied().collect();
                let hit = found.intersection(&truth).count() as f64;
                let precision = if found.is_empty() {
                    1.0
                } else {
                    hit / found.len() as f64
                };
                let recall = if truth.is_empty() {
                    1.0
                } else {
                    hit / truth.len() as f64
                };
                cleanm_core::quality::Accuracy::new(precision, recall).f_score
            }
        }
    }

    /// Distinct dirty terms a term-validation job validates (0 otherwise).
    pub fn distinct_terms(&self) -> usize {
        match &self.truth {
            Truth::Terms { dirty, .. } => dirty.iter().collect::<HashSet<_>>().len(),
            _ => 0,
        }
    }
}

impl Workload {
    /// Generate `datasets` inputs from `seed` and write their files to
    /// `dir`. Dataset `i` is generated from its own seed derived from
    /// `seed` and `i`.
    pub fn generate(
        kind: Kind,
        seed: u64,
        datasets: usize,
        ctx: Arc<ExecContext>,
        dir: &Path,
    ) -> Result<Self, String> {
        let datasets = (0..datasets)
            .map(|i| {
                let sub_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
                Dataset::generate(kind, sub_seed, i, dir)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let sql = match kind {
            Kind::DedupCustomer => {
                "SELECT * FROM customer c \
                 FD(c.address | prefix(c.phone)) \
                 FD(c.address | c.nationkey) \
                 DEDUP(exact, LD, 0.8, c.address, c.name)"
            }
            Kind::RulesLineitem => {
                "SELECT * FROM lineitem l FD(l.orderkey, l.linenumber | l.suppkey)"
            }
            Kind::StandingRepair => STANDING_CUSTOMER_SQL,
            Kind::TermvalDblp => {
                "SELECT * FROM dblp t, dict w CLUSTER BY(kmeans(10), LD, 0.7, t.authors)"
            }
        };
        // The repair engine has no fix for an FD over a derived right-hand
        // side (`prefix(c.phone)`): it reports those violations unrepaired.
        // The standing query of the DEDUP workload is therefore the
        // repairable part of its batch query.
        let standing_sql = match kind {
            Kind::DedupCustomer => STANDING_CUSTOMER_SQL,
            _ => sql,
        };
        Ok(Workload {
            kind,
            ctx,
            sql: sql.to_string(),
            standing_sql: standing_sql.to_string(),
            table_name: kind.table_name(),
            schema: datasets[0].full.schema.clone(),
            datasets,
        })
    }

    fn session(&self, profile: EngineProfile) -> CleanDb {
        let mut db = CleanDb::with_context(profile, Arc::clone(&self.ctx));
        db.set_seed(ENGINE_SEED);
        db
    }

    fn register(&self, db: &mut CleanDb, data: &Dataset, table: Table) {
        db.register(self.table_name, table);
        if let Some(dict) = &data.dictionary {
            db.register_dictionary("dict", dict.clone());
        }
    }

    /// One batch job: read an input file, register it in a fresh session,
    /// run the query (and ψ). Jobs rotate over the datasets.
    pub fn batch_job(&self, job: u64, spans: &mut Spans) -> Result<JobOut, String> {
        let mut db = self.session(EngineProfile::clean_db());
        let dataset = job as usize % self.datasets.len();
        let data = &self.datasets[dataset];
        let open = spans.begin("formats.read");
        let batch = std::fs::read_to_string(&data.input)
            .map_err(err)
            .and_then(|text| {
                csv::read_str_columnar(&text, &self.schema, &csv::CsvOptions::default())
                    .map_err(err)
            });
        spans.end(open);
        let batch = batch?;
        spans.time("engine.register", || {
            db.register_columnar(self.table_name, batch);
            if let Some(dict) = &data.dictionary {
                db.register_dictionary("dict", dict.clone());
            }
        });
        let report = spans
            .time("engine.run", || db.run(&self.sql))
            .map_err(err)?;
        let dc = match &data.dc {
            Some(dc) => Some(
                spans
                    .time("engine.run_dc", || dc.run(&mut db))
                    .map_err(err)?,
            ),
            None => None,
        };
        Ok(JobOut {
            dataset,
            db,
            report,
            dc,
        })
    }

    /// The same query over the full input under another profile: the
    /// reference a batch job's report must equal.
    pub fn reference_report(
        &self,
        data: &Dataset,
        profile: EngineProfile,
        sql: &str,
    ) -> Result<CleaningReport, String> {
        let mut db = self.session(profile);
        self.register(&mut db, data, data.full.clone());
        db.run(sql).map_err(err)
    }

    /// The front-end layers, called directly on the query text, each in
    /// its own span.
    pub fn front_end(&self, spans: &mut Spans) -> Result<(), String> {
        let query = spans
            .time("lang.parse", || parse_query(&self.sql))
            .map_err(err)?;
        let dq = spans
            .time("calculus.desugar", || desugar_query(&query, ENGINE_SEED))
            .map_err(err)?;
        let ops: Vec<DesugaredOp> = spans.time("calculus.normalize", || {
            dq.ops
                .iter()
                .map(|op| DesugaredOp {
                    label: op.label.clone(),
                    comp: normalize(&op.comp).0,
                    kind: op.kind,
                })
                .collect()
        });
        spans
            .time("algebra.plan", || {
                let lowered: Result<Vec<_>, _> = ops.iter().map(|op| lower_op(&op.comp)).collect();
                lowered.map(|plans| rewrite_shared(&plans))
            })
            .map_err(err)?;
        Ok(())
    }

    /// Run the query once over `data` with the engine's own profiling on.
    /// Returns the pair environments the executed plans built (rows out of
    /// every `Unnest` fed by another `Unnest`: the p1 × p2 expansion) and
    /// the similarity comparisons the same run made.
    pub fn pair_envs(&self, data: &Dataset) -> Result<(u64, u64), String> {
        let mut db = self.session(EngineProfile::clean_db());
        self.register(&mut db, data, data.full.clone());
        db.set_tracing(true);
        let report = db.run(&self.sql);
        db.set_tracing(false);
        let report = report.map_err(err)?;
        fn walk(node: &cleanm_core::ProfileNode) -> u64 {
            let own = if node.op == "Unnest" && node.children.iter().any(|c| c.op == "Unnest") {
                node.rows_out
            } else {
                0
            };
            own + node.children.iter().map(walk).sum::<u64>()
        }
        let envs = report.profiles.iter().map(|p| walk(&p.root)).sum();
        Ok((envs, report.metrics.comparisons))
    }

    /// Register dataset `dataset`'s base rows and install the standing
    /// query (and ψ).
    pub fn start_cycle(&self, dataset: usize) -> Result<Cycle, String> {
        let data = &self.datasets[dataset];
        let mut db = self.session(EngineProfile::clean_db());
        self.register(&mut db, data, data.base.clone());
        let mut incr = IncrementalSession::new(db);
        let (id, _) = incr.install(&self.standing_sql).map_err(err)?;
        let dc_id = match &data.dc {
            Some(dc) => Some(incr.install_dc(dc).map_err(err)?.0),
            None => None,
        };
        Ok(Cycle {
            dataset,
            incr,
            id,
            dc_id,
            step: 0,
        })
    }

    /// Append the cycle's next delta and refresh the standing query.
    pub fn refresh(&self, cycle: &mut Cycle, spans: &mut Spans) -> Result<RefreshOut, String> {
        let delta = self.datasets[cycle.dataset].deltas[cycle.step].clone();
        spans
            .time("incr.append", || cycle.incr.append(self.table_name, delta))
            .map_err(err)?;
        let open = spans.begin("incr.refresh");
        let report = cycle.incr.refresh(cycle.id);
        let dc = cycle.dc_id.map(|id| cycle.incr.refresh_dc(id));
        spans.end(open);
        cycle.step += 1;
        Ok(RefreshOut {
            report: report.map_err(err)?,
            dc: dc.transpose().map_err(err)?,
        })
    }

    /// Has the cycle appended every delta?
    pub fn cycle_done(&self, cycle: &Cycle) -> bool {
        cycle.step == self.datasets[cycle.dataset].deltas.len()
    }

    /// Detect and plan repairs with `RepairEngine::run`, apply them, and
    /// re-validate through the standing query (and a fresh ψ check).
    pub fn repair(&self, cycle: &mut Cycle, spans: &mut Spans) -> Result<RepairOut, String> {
        let engine = RepairEngine::default();
        let data = &self.datasets[cycle.dataset];
        let open = spans.begin("repair.run");
        let (planned, run_ms) = timed(|| {
            let report = engine.run(cycle.incr.db(), &self.standing_sql)?;
            let dc = match &data.dc {
                Some(dc) => Some(engine.repair_dc(cycle.incr.db(), dc)?),
                None => None,
            };
            Ok::<_, cleanm_core::engine::EngineError>((report, dc))
        });
        spans.end(open);
        let (mut report, dc) = planned.map_err(err)?;
        let mut section = report.repair.take().unwrap_or_default();
        if let Some((_, dc_section)) = dc {
            section.merge(dc_section);
            section.sort();
        }
        let plan_ms = ms(section.duration);
        let applied = spans
            .time("repair.apply", || cycle.incr.db().apply_repairs(&section))
            .map_err(err)?;
        let open = spans.begin("incr.refresh");
        let after = cycle.incr.refresh(cycle.id);
        let dc_after = data.dc.as_ref().map(|dc| dc.run(cycle.incr.db()));
        spans.end(open);
        Ok(RepairOut {
            fixes: section.fixes.len(),
            rows_dropped: applied.rows_dropped(),
            unrepaired: section.unrepaired,
            detect_ms: (run_ms - plan_ms).max(0.0),
            plan_ms,
            after: after.map_err(err)?,
            dc_after: dc_after.transpose().map_err(err)?,
        })
    }
}

/// Violating entities of a DC outcome (`None` when the check did not run
/// to completion).
pub fn dc_violations(outcome: &DcOutcome) -> Option<usize> {
    match outcome {
        DcOutcome::Completed { violations, .. } => Some(*violations),
        DcOutcome::BudgetExceeded { .. } => None,
    }
}
