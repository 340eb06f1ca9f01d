//! cleanbench: the end-to-end CleanM cleaning benchmark.
//!
//! ```text
//! cleanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs a closed loop in one process: batch jobs, standing-query
//! refreshes and repairs back to back, through the public API only, on one
//! shared execution context with a worker per core. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` records the benchmark's own spans around
//! every call into a layer and prints the per-layer metrics. Every output
//! is checked against an independent reference; the last stdout line is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod reference;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cleanm_core::physical::EngineProfile;
use cleanm_core::{CleaningReport, OpKind};
use cleanm_exec::ExecContext;

use reference::{psi_violations, remaining_violations, Fingerprint};
use spans::Spans;
use stats::{highest_reportable_percentile, mean, median, percentile, rows_per_s, MIN_BEYOND};
use workloads::{dc_violations, Cycle, Dataset, JobOut, Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Batch jobs run during each set-up to warm the pool and allocator.
const WARMUP_JOBS: u64 = 2;
/// Datasets generated per run; jobs and refresh cycles rotate over them,
/// so a run's figures average over many draws of the generator. One
/// `dedup_customer` dataset's job time varies by about 19% from draw to
/// draw; 48 draws hold a run's average to about 3%.
const DATASETS: usize = 48;
/// Rounds (batch jobs) a run makes at least.
const MIN_ROUNDS: u64 = 100;
/// Standing-query steps (a refresh, or the repair closing a cycle) per
/// batch job.
const REFRESHES_PER_JOB: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    Ok(Args {
        kind: kind.ok_or(format!(
            "--workload is required (one of {})",
            names.join(", ")
        ))?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cleanbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".cleanbench").join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|_| run(&args, process_start, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cleanbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations attempted, and those that errored or failed their check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("cleanbench: check failed: {}", what());
        }
    }
}

/// The references every output is checked against, computed once.
struct References {
    /// The batch query under the SparkSQL-like profile.
    batch: Fingerprint,
    /// The standing query run from scratch over the rows a refresh cycle
    /// ends with.
    scratch: Fingerprint,
    /// ψ violations by brute force.
    psi: Option<usize>,
}

fn set_up(kind: Kind, seed: u64, dir: &Path) -> Result<Workload, String> {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let ctx = ExecContext::new(workers, workers * 2);
    // The per-record network spin models a cluster, not work this program
    // does; on a small host it would also occupy a worker.
    ctx.set_network_cost_ns(0);
    let wl = Workload::generate(kind, seed, DATASETS, ctx, dir)?;
    let mut off = Spans::new(false);
    for job in 0..WARMUP_JOBS {
        wl.batch_job(job, &mut off)?;
    }
    let mut cycle = wl.start_cycle(0)?;
    wl.refresh(&mut cycle, &mut off)?;
    Ok(wl)
}

/// One dataset's references.
fn references(wl: &Workload, data: &Dataset) -> Result<References, String> {
    let batch =
        Fingerprint::of(&wl.reference_report(data, EngineProfile::spark_sql_like(), &wl.sql)?);
    // Reports are identical across profiles, so a standing query equal to
    // the batch query shares its reference.
    let scratch = if wl.standing_sql == wl.sql {
        batch.clone()
    } else {
        Fingerprint::of(&wl.reference_report(data, EngineProfile::clean_db(), &wl.standing_sql)?)
    };
    Ok(References {
        batch,
        scratch,
        psi: data
            .dc
            .as_ref()
            .map(|_| psi_violations(&data.full, data.psi_cap)),
    })
}

/// Per-layer samples, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Measured {
    tally: Tally,
    job_ms: Vec<f64>,
    rows: u64,
    refresh_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    /// Quality of the first job on each dataset.
    quality: Vec<Option<f64>>,
    layer: Samples,
    fallback_ops: u64,
}

fn check_job(wl: &Workload, refs: &[References], out: &JobOut, m: &mut Measured) {
    let refs = &refs[out.dataset];
    m.tally
        .check(Fingerprint::of(&out.report) == refs.batch, || {
            format!(
                "{}: batch report differs from the SparkSQL-like reference",
                wl.kind.name()
            )
        });
    if let Some(expected) = refs.psi {
        let got = out.dc.as_ref().and_then(dc_violations);
        m.tally.check(got == Some(expected), || {
            format!("psi: engine {got:?} vs brute force {expected}")
        });
    }
}

fn run(args: &Args, process_start: Instant, dir: &Path) -> Result<bool, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut wl = None;
    for i in 0..SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(wl.take());
        wl = Some(set_up(args.kind, args.seed, dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let wl = wl.expect("set up at least once");
    let refs = wl
        .datasets
        .iter()
        .map(|data| references(&wl, data))
        .collect::<Result<Vec<_>, _>>()?;

    let mut spans = Spans::new(args.trace);
    let mut m = Measured {
        quality: vec![None; wl.datasets.len()],
        ..Measured::default()
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut cycle = wl.start_cycle(0)?;
    let mut job: u64 = 0;
    let pass_jobs = wl.datasets.len() as u64;
    let mut pass_start = Instant::now();
    loop {
        // An untraced run ends on the completed pass over the datasets
        // nearest the deadline, so that every dataset weighs the same, and
        // makes at least MIN_ROUNDS jobs, so that MIN_BEYOND of them lie
        // beyond their p90. A traced run reports no percentiles; it ends at
        // the deadline.
        let now = Instant::now();
        if args.trace {
            if job > 0 && now >= deadline {
                break;
            }
        } else if job > 0 && job.is_multiple_of(pass_jobs) {
            let pass = now - pass_start;
            pass_start = now;
            if job >= MIN_ROUNDS && now + pass / 2 >= deadline {
                break;
            }
        }
        spans.set_job(job);
        if args.trace {
            // Interleave an untraced job to price the tracing, alternating
            // which side goes first.
            if job.is_multiple_of(2) {
                untraced_job(&wl, &refs, job, &mut m);
                traced_job(&wl, &refs, job, &mut spans, &mut m);
            } else {
                traced_job(&wl, &refs, job, &mut spans, &mut m);
                untraced_job(&wl, &refs, job, &mut m);
            }
        } else {
            untraced_job(&wl, &refs, job, &mut m);
        }
        // Refreshes are short: two per batch job keep their percentiles
        // resting on many samples.
        for _ in 0..REFRESHES_PER_JOB {
            if wl.cycle_done(&cycle) {
                let (hits, misses) = cycle.plan_cache_counters();
                m.layer.push(
                    "engine.plan_cache_hit_ratio",
                    hits as f64 / (hits + misses).max(1) as f64,
                );
                repair_step(&wl, &mut cycle, &mut spans, &mut m);
                cycle = wl.start_cycle((cycle.dataset + 1) % wl.datasets.len())?;
            } else {
                refresh_step(&wl, &refs, &mut cycle, &mut spans, &mut m);
            }
        }
        job += 1;
    }
    let peak_rss_mb = peak_rss_mb()?;

    let metrics = if args.trace {
        let pairs = wl.pair_envs(&wl.datasets[0])?;
        layer_metrics(&spans, &m, pairs)
    } else {
        end_to_end_metrics(&setup_s, &m, peak_rss_mb)
    };
    if args.trace {
        let path = PathBuf::from(".cleanbench").join(format!(
            "spans-{}-seed{}.json",
            wl.kind.name(),
            args.seed
        ));
        std::fs::write(&path, spans.to_json()).map_err(|e| e.to_string())?;
        eprintln!(
            "cleanbench: {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
    }
    print_table(&wl, args, &m, &metrics);
    let correct = m.tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.tally.attempted,
        m.tally.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn untraced_job(wl: &Workload, refs: &[References], job: u64, m: &mut Measured) {
    let mut off = Spans::new(false);
    let start = Instant::now();
    let out = wl.batch_job(job, &mut off);
    let elapsed = ms(start.elapsed());
    match out {
        Ok(out) => {
            let data = &wl.datasets[out.dataset];
            m.job_ms.push(elapsed);
            m.rows += data.rows();
            if m.quality[out.dataset].is_none() {
                m.quality[out.dataset] = Some(data.quality_f1(&out.report));
            }
            check_job(wl, refs, &out, m);
        }
        Err(e) => m.tally.check(false, || format!("batch job: {e}")),
    }
}

fn traced_job(wl: &Workload, refs: &[References], job: u64, spans: &mut Spans, m: &mut Measured) {
    let open = spans.begin("job");
    let out = wl.batch_job(job, spans);
    spans.end(open);
    let mut out = match out {
        Ok(out) => out,
        Err(e) => return m.tally.check(false, || format!("batch job: {e}")),
    };
    check_job(wl, refs, &out, m);
    record_report(wl, out.dataset, &out.report, m);
    if let Some(cleanm_core::ops::DcOutcome::Completed {
        duration,
        comparisons,
        ..
    }) = &out.dc
    {
        m.layer.push("physical.op_ms.dc", ms(*duration));
        m.layer.push("exec.theta_comparisons", *comparisons as f64);
    }
    // Front-end layers on the job's text, then a second run of the same
    // text: the text-cache hit skips parse and plan, leaving execution.
    let open = spans.begin("probe");
    let front = wl.front_end(spans);
    let again = spans.time("engine.run", || out.db.run(&wl.sql));
    spans.end(open);
    if let Err(e) = front.and(again.map_err(|e| e.to_string())) {
        m.tally.check(false, || format!("probe: {e}"));
    }
}

/// Per-layer counters a batch report carries.
fn record_report(wl: &Workload, dataset: usize, r: &CleaningReport, m: &mut Measured) {
    let l = &mut m.layer;
    let n = &r.normalize_stats;
    l.push(
        "calculus.rewrites",
        (n.beta_reductions
            + n.generators_flattened
            + n.ifs_split
            + n.exists_unnested
            + n.filters_pushed
            + n.simplifications) as f64,
    );
    l.push(
        "algebra.shared_nodes",
        r.rewrite_stats.total_shared() as f64,
    );
    let op_ms = |kind: OpKind| -> f64 {
        r.ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| ms(o.duration))
            .fold(0.0, |a, b| a + b)
    };
    l.push("physical.op_ms.fd", op_ms(OpKind::Fd));
    l.push("physical.op_ms.dedup", op_ms(OpKind::Dedup));
    l.push("physical.op_ms.termval", op_ms(OpKind::TermValidation));
    l.push("physical.similarity_ms", ms(r.timings.similarity));
    l.push("physical.grouping_ms", ms(r.timings.grouping));
    l.push("physical.vectorized_rows", r.exprs.vectorized_rows as f64);
    l.push("physical.fused_selects", r.exprs.fused_selects as f64);
    l.push("physical.interpreted_exprs", r.exprs.interpreted as f64);
    let mx = &r.metrics;
    l.push("exec.records_shuffled", mx.records_shuffled as f64);
    let busy_ns: u64 = mx.stages.iter().flat_map(|s| &s.worker_busy_ns).sum();
    l.push("exec.stage_busy_ms", busy_ns as f64 / 1e6);
    let capacity: f64 = mx
        .stages
        .iter()
        .map(|s| s.wall_ns as f64 * s.worker_busy_ns.len() as f64)
        .sum();
    let idle = if capacity > 0.0 {
        let busy: f64 = mx
            .stages
            .iter()
            .filter(|s| s.wall_ns > 0)
            .flat_map(|s| &s.worker_busy_ns)
            .map(|&b| b as f64)
            .sum();
        (1.0 - busy / capacity).max(0.0)
    } else {
        0.0
    };
    l.push("exec.idle_fraction", idle);
    l.push("exec.max_imbalance", mx.max_imbalance());
    l.push("exec.partition_retries", mx.partition_retries as f64);
    l.push("text.comparisons", mx.comparisons as f64);
    let found = (cleanm_core::ops::dedup::extract_pairs(r).len() + r.repairs.len()) as f64;
    l.push(
        "text.match_ratio",
        if mx.comparisons > 0 {
            found / mx.comparisons as f64
        } else {
            0.0
        },
    );
    if wl.kind == Kind::TermvalDblp {
        l.push("cluster.block_ms", ms(r.timings.grouping));
        l.push(
            "cluster.candidates_per_term",
            mx.comparisons as f64 / wl.datasets[dataset].distinct_terms().max(1) as f64,
        );
    }
}

fn refresh_step(
    wl: &Workload,
    refs: &[References],
    cycle: &mut Cycle,
    spans: &mut Spans,
    m: &mut Measured,
) {
    let open = spans.begin("refresh");
    let start = Instant::now();
    let out = wl.refresh(cycle, spans);
    let elapsed = ms(start.elapsed());
    spans.end(open);
    let out = match out {
        Ok(out) => out,
        Err(e) => return m.tally.check(false, || format!("refresh: {e}")),
    };
    m.refresh_ms.push(elapsed);
    let info = out.report.incremental.clone().unwrap_or_default();
    m.fallback_ops += info.fallback_ops as u64;
    let last = wl.cycle_done(cycle);
    let refs = &refs[cycle.dataset];
    let matches_scratch = !last || Fingerprint::of(&out.report) == refs.scratch;
    let psi_ok = !last || out.dc.as_ref().and_then(dc_violations) == refs.psi;
    m.tally.check(
        out.report.incremental.is_some() && info.fallback_ops == 0 && matches_scratch && psi_ok,
        || {
            format!(
                "refresh {}: incremental {:?}, equals from-scratch run: {matches_scratch}, \
                 psi: {psi_ok}",
                cycle.step, out.report.incremental
            )
        },
    );
    let l = &mut m.layer;
    l.push("incr.delta_rows", info.delta_rows as f64);
}

fn repair_step(wl: &Workload, cycle: &mut Cycle, spans: &mut Spans, m: &mut Measured) {
    let open = spans.begin("repair");
    let start = Instant::now();
    let out = wl.repair(cycle, spans);
    let elapsed = ms(start.elapsed());
    spans.end(open);
    let out = match out {
        Ok(out) => out,
        Err(e) => return m.tally.check(false, || format!("repair: {e}")),
    };
    m.repair_ms.push(elapsed);
    let dc_after = out.dc_after.as_ref().and_then(dc_violations);
    let clean = remaining_violations(&out.after) == 0 && dc_after.unwrap_or(0) == 0;
    m.tally.check(clean, || {
        format!(
            "repair left {} violation(s), ψ {dc_after:?} ({} fixes, {} unrepaired)",
            out.after.violations(),
            out.fixes,
            out.unrepaired
        )
    });
    let l = &mut m.layer;
    l.push("repair.detect_ms", out.detect_ms);
    l.push("repair.plan_ms", out.plan_ms);
    l.push("repair.fixes", out.fixes as f64);
    l.push("repair.rows_dropped", out.rows_dropped as f64);
    l.push("repair.unrepaired", out.unrepaired as f64);
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metric = (&'static str, &'static str, f64);

fn end_to_end_metrics(setup_s: &[f64], m: &Measured, peak_rss_mb: f64) -> Vec<Metric> {
    let job_secs: Vec<f64> = m.job_ms.iter().map(|v| v / 1e3).collect();
    vec![
        ("setup_s", "s", median(setup_s)),
        ("job_p50_ms", "ms", median(&m.job_ms)),
        (
            "job_p90_ms",
            "ms",
            percentile(&m.job_ms, 90.0).unwrap_or(0.0),
        ),
        ("rows_per_s", "rows/s", rows_per_s(m.rows, &job_secs)),
        ("refresh_p50_ms", "ms", median(&m.refresh_ms)),
        (
            "refresh_p90_ms",
            "ms",
            percentile(&m.refresh_ms, 90.0).unwrap_or(0.0),
        ),
        ("repair_ms", "ms", median(&m.repair_ms)),
        ("quality_f1", "ratio", mean(m.quality.iter().flatten())),
        ("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// Span-derived metrics: (metric, span, parent span, unit, scale from ms).
const SPAN_METRICS: [(&str, &str, &str, &str, f64); 13] = [
    ("formats.read_ms", "formats.read", "job", "ms", 1.0),
    ("engine.register_ms", "engine.register", "job", "ms", 1.0),
    ("engine.run_ms", "engine.run", "job", "ms", 1.0),
    ("lang.parse_us", "lang.parse", "probe", "us", 1e3),
    (
        "calculus.desugar_us",
        "calculus.desugar",
        "probe",
        "us",
        1e3,
    ),
    (
        "calculus.normalize_us",
        "calculus.normalize",
        "probe",
        "us",
        1e3,
    ),
    ("algebra.plan_us", "algebra.plan", "probe", "us", 1e3),
    ("physical.execute_ms", "engine.run", "probe", "ms", 1.0),
    ("incr.append_ms", "incr.append", "refresh", "ms", 1.0),
    ("incr.refresh_ms", "incr.refresh", "refresh", "ms", 1.0),
    ("repair.apply_ms", "repair.apply", "repair", "ms", 1.0),
    ("repair.revalidate_ms", "incr.refresh", "repair", "ms", 1.0),
    ("repair.run_ms", "repair.run", "repair", "ms", 1.0),
];

/// Report-derived metrics: medians of the per-operation samples.
const SAMPLE_METRICS: [(&str, &str); 28] = [
    ("calculus.rewrites", "count"),
    ("algebra.shared_nodes", "count"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("physical.op_ms.fd", "ms"),
    ("physical.op_ms.dedup", "ms"),
    ("physical.op_ms.dc", "ms"),
    ("physical.op_ms.termval", "ms"),
    ("physical.similarity_ms", "ms"),
    ("physical.grouping_ms", "ms"),
    ("physical.vectorized_rows", "count"),
    ("physical.fused_selects", "count"),
    ("physical.interpreted_exprs", "count"),
    ("exec.records_shuffled", "count"),
    ("exec.stage_busy_ms", "ms"),
    ("exec.idle_fraction", "ratio"),
    ("exec.max_imbalance", "ratio"),
    ("exec.theta_comparisons", "count"),
    ("exec.partition_retries", "count"),
    ("text.comparisons", "count"),
    ("text.match_ratio", "ratio"),
    ("cluster.block_ms", "ms"),
    ("cluster.candidates_per_term", "count"),
    ("incr.delta_rows", "count"),
    ("repair.detect_ms", "ms"),
    ("repair.plan_ms", "ms"),
    ("repair.fixes", "count"),
    ("repair.rows_dropped", "count"),
    ("repair.unrepaired", "count"),
];

/// The per-layer metrics; `pairs` is `(pair envs, comparisons)` from one
/// profiled run over the first dataset.
fn layer_metrics(spans: &Spans, m: &Measured, pairs: (u64, u64)) -> Vec<Metric> {
    let mut out: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, span, parent, unit, scale)| {
            let v: Vec<f64> = spans
                .self_times(span, Some(parent))
                .into_iter()
                .map(|ns| ns as f64 / 1e6 * scale)
                .collect();
            (name, unit, median(&v))
        })
        .collect();
    out.extend(
        SAMPLE_METRICS
            .iter()
            .map(|&(name, unit)| (name, unit, m.layer.median(name))),
    );
    let (envs, comparisons) = (pairs.0 as f64, pairs.1 as f64);
    let pair_yield = if envs > 0.0 { comparisons / envs } else { 0.0 };
    out.push(("physical.pair_envs", "count", envs));
    out.push(("physical.pair_yield", "ratio", pair_yield));
    out.push(("incr.fallback_ops", "count", m.fallback_ops as f64));
    let traced_job_ms: Vec<f64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let overhead = median(&traced_job_ms) / median(&m.job_ms).max(1e-9) - 1.0;
    out.push(("trace.overhead", "ratio", overhead));
    out
}

/// Human-readable summary (stdout, before the JSON line).
fn print_table(wl: &Workload, args: &Args, m: &Measured, metrics: &[Metric]) {
    let mode = if args.trace { "traced" } else { "untraced" };
    let rows: Vec<u64> = wl.datasets.iter().map(Dataset::rows).collect();
    println!(
        "cleanbench {} seed={} seconds={} ({mode}), {} datasets of {}..{} rows",
        wl.kind.name(),
        args.seed,
        args.seconds,
        rows.len(),
        rows.iter().min().unwrap_or(&0),
        rows.iter().max().unwrap_or(&0)
    );
    for (what, n) in [("jobs", m.job_ms.len()), ("refreshes", m.refresh_ms.len())] {
        let p = highest_reportable_percentile(n).map_or("none".into(), |p| format!("p{p}"));
        println!("  {what}: {n} samples; highest percentile with {MIN_BEYOND} beyond: {p}");
    }
    println!("  repairs: {} samples", m.repair_ms.len());
    let ratio = m.tally.failed as f64 / m.tally.attempted.max(1) as f64;
    println!(
        "  {:<30} {:>14.4} ({} of {})",
        "fail_ratio", ratio, m.tally.failed, m.tally.attempted
    );
    for (name, unit, v) in metrics {
        println!("  {name:<30} {v:>14.4} {unit}");
    }
}
