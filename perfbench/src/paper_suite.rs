//! `paper-suite`: every experiment id in quick mode, which is what a
//! reader runs to regenerate the paper's tables and figures. It goes
//! through the same global permit budget, cold-cost admission and
//! shared-prefix forking as `repro all`, with `jobs` at most the
//! machine's parallelism, and a fresh empty cost model per repetition,
//! so no state carries from one repetition to the next. It is the only
//! workload where `experiments::runner` and `metrics` rendering do real
//! work.
//!
//! The suite runs at `repro`'s default seed, the input a reader
//! regenerates the paper with, so its digest is that of `repro --quick
//! all`'s stdout and its shape count and Figure 5 reading are the ones
//! the docs quote. Between suite repetitions the workload times the
//! roadmap's other end-to-end number, one simulated second of the
//! paper-testbed exim + swaptions co-run under the baseline (the
//! anchor), which is this workload's `sim_s_per_host_s`. The anchor's
//! input is fixed too, so `--seed` does not change this workload: a
//! seed-derived anchor carried the seed's ±9% spread of simulated work
//! into the rate.

use crate::chunks::Chunks;
use crate::layers::fingerprint;
use crate::spin_corun::PAPER_EXIM_1CORE;
use crate::stats::{fnv, median, quantile, FNV_SEED};
use crate::Bench;
use experiments::runner::cost::{CostModel, CostRecorder};
use experiments::runner::pool::{self, Budget};
use experiments::{run_experiment, RunOptions, ALL_EXPERIMENTS};
use hypervisor::{BaselinePolicy, Machine, MachineConfig, VmSpec};
use metrics::render::Table;
use simcore::time::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use workloads::{scenarios, Workload};

/// Suite repetitions run even when `--seconds` is shorter: two, so that
/// their outputs can be compared.
const MIN_REPS: u64 = 2;
/// Anchor seconds simulated before each repetition and after the last.
const ANCHORS: usize = 8;
/// Upper bound on worker threads, to bound memory on large hosts.
const MAX_JOBS: usize = 4;

/// One machine of each scenario shape the suite's experiments build.
fn suite_shapes() -> Vec<(MachineConfig, Vec<VmSpec>)> {
    let mut shapes: Vec<_> = [
        Workload::Exim,
        Workload::Gmake,
        Workload::Psearchy,
        Workload::Memclone,
        Workload::Dedup,
        Workload::Vips,
    ]
    .into_iter()
    .map(scenarios::corun)
    .collect();
    shapes.push(scenarios::solo(Workload::Gmake));
    shapes.push(scenarios::mixed_iperf_corun());
    shapes.push(scenarios::fig9_mixed_pinned(true));
    shapes.push(scenarios::iperf_solo(true));
    shapes
}

/// Builds one machine of each suite shape; returns the seconds taken.
fn setup(b: &mut Bench) -> f64 {
    let open = b.tracer.open("setup");
    for (cfg, specs) in suite_shapes() {
        let (m, _) = b.tracer.time("machine.new", || {
            Machine::new(cfg, specs, Box::new(BaselinePolicy))
        });
        std::hint::black_box(m.now());
    }
    b.tracer.close(open).as_secs_f64()
}

/// The anchor: one simulated second of the exim + swaptions co-run on
/// the paper testbed at its default seed — the input of the
/// `simulate_one_second_baseline` row in `BENCH_hotpaths.json`.
fn anchor(b: &mut Bench) -> (Machine, f64) {
    let cfg = MachineConfig::paper_testbed();
    let n = cfg.num_pcpus;
    let specs = vec![
        scenarios::vm_with_iters(Workload::Exim, n, None),
        scenarios::vm_with_iters(Workload::Swaptions, n, None),
    ];
    let open = b.tracer.open("anchor");
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    // A failed run poisons the machine; `m.error()` reports it.
    let _ = m.run_until(SimTime::from_secs(1));
    (m, b.tracer.close(open).as_secs_f64())
}

/// One experiment's outcome on its driver thread.
type Outcome = (Result<Vec<Table>, String>, Instant, Instant);

/// One suite repetition's results.
struct SuiteRep {
    stdout: String,
    wall: f64,
    walls: Vec<f64>,
    render_s: f64,
    failed: u64,
    cells: Vec<f64>,
}

/// Runs every experiment once; `names` are their span names.
fn suite(b: &mut Bench, opts: &RunOptions, names: &[&'static str]) -> SuiteRep {
    let budget = Arc::new(Budget::new(opts.jobs));
    let model = Arc::new(CostModel::default());
    let recorder = Arc::new(CostRecorder::default());
    let mut out = SuiteRep {
        stdout: String::new(),
        wall: 0.0,
        walls: vec![0.0; ALL_EXPERIMENTS.len()],
        render_s: 0.0,
        failed: 0,
        cells: Vec::new(),
    };
    pool::run_streamed(
        ALL_EXPERIMENTS.len(),
        |i| -> Outcome {
            let id = ALL_EXPERIMENTS[i];
            let started = Instant::now();
            let label = format!("{id}@quick@fork");
            let tables = pool::with_budget(&budget, || {
                pool::with_costs(&label, &model, &recorder, || {
                    catch_unwind(AssertUnwindSafe(|| run_experiment(id, opts)))
                })
            });
            let tables = match tables {
                Ok(Some(t)) => Ok(t),
                Ok(None) => Err(format!("unknown experiment {id}")),
                Err(_) => Err(format!("{id} panicked")),
            };
            (tables, started, Instant::now())
        },
        |i, (tables, started, ended)| {
            b.tracer.record(names[i], started, ended);
            out.walls[i] = (ended - started).as_secs_f64();
            match tables {
                Ok(tables) => {
                    for table in &tables {
                        let (text, d) = b.tracer.time("metrics.render", || table.render());
                        out.render_s += d.as_secs_f64();
                        out.stdout.push_str(&text);
                        out.stdout.push('\n');
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    out.failed += 1;
                }
            }
        },
    );
    // Cells that failed under `keep_going` render as ERR (or HUNG).
    out.failed += out
        .stdout
        .split_whitespace()
        .filter(|t| *t == "ERR" || *t == "HUNG")
        .count() as u64;
    out.cells = recorder
        .take()
        .into_iter()
        .map(|(_, ns)| ns as f64 / 1e9)
        .collect();
    out
}

/// The `N` of the compare table's "N/M PASS" title.
fn shapes_passed(stdout: &str) -> Option<u64> {
    let title = stdout.lines().find(|l| l.contains("shape verification:"))?;
    let frac = title.split_whitespace().find(|t| t.contains('/'))?;
    frac.split('/').next()?.parse().ok()
}

/// Exim's throughput improvement at one micro core, from Figure 5.
fn exim_one_core(stdout: &str) -> Option<f64> {
    let mut lines = stdout.lines().skip_while(|l| !l.contains("Figure 5 [exim"));
    let row = lines.find(|l| l.starts_with("1 "))?;
    row.split_whitespace()
        .nth(1)?
        .strip_suffix('x')?
        .parse()
        .ok()
}

pub fn run(b: &mut Bench) {
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_JOBS);
    let opts = RunOptions {
        quick: true,
        keep_going: true,
        ..RunOptions::default()
    }
    .with_jobs(jobs);
    println!("jobs={jobs} (available parallelism capped at {MAX_JOBS})");

    b.warm_up(setup);

    let names: Vec<&'static str> = ALL_EXPERIMENTS
        .iter()
        .map(|id| &*Box::leak(format!("runner.{id}").into_boxed_str()))
        .collect();
    // Anchor seconds: one repetition of `ANCHORS` anchors per gap
    // between suites.
    let mut anchors = Chunks::default();
    let mut anchor_ok = true;
    let mut anchor_digests = Vec::new();
    let mut reps: Vec<SuiteRep> = Vec::new();
    let started = Instant::now();
    let mut rep = 0u64;
    loop {
        // The reference is sampled beside every anchor: single-threaded
        // samples between the suites tracked the suite's drift, samples
        // taken on a third thread during the suite did not.
        anchors.begin_rep(1);
        for _ in 0..ANCHORS {
            let (m, secs) = anchor(b);
            b.sample_host(setup);
            anchor_ok &= m.error().is_none();
            anchors.push(0, secs);
            anchor_digests.push(fingerprint(&m));
        }
        if rep >= MIN_REPS && started.elapsed().as_secs_f64() >= b.seconds {
            break;
        }
        let open = b.begin_rep(rep);
        let mut done = suite(b, &opts, &names);
        done.wall = b.end_rep(open, rep);
        if done.failed > 0 {
            eprintln!("suite repetition {rep}: {} failures", done.failed);
        }
        reps.push(done);
        rep += 1;
    }
    // Each cell of the suite counts once: it failed if any repetition
    // rendered it as ERR or HUNG (or its experiment panicked).
    b.attempted += reps[0].cells.len() as u64;
    b.failed += reps.iter().map(|r| r.failed).max().unwrap_or(0);
    b.check(anchor_ok, "an anchor second failed");
    let digests: Vec<u64> = reps
        .iter()
        .map(|r| fnv(FNV_SEED, r.stdout.as_bytes()))
        .collect();
    b.check(
        digests.windows(2).all(|w| w[0] == w[1]),
        "suite repetitions of one seed rendered different output",
    );
    b.check(
        anchor_digests.windows(2).all(|w| w[0] == w[1]),
        "anchor seconds disagree on the machine fingerprint",
    );
    println!(
        "digest seed={} stdout={:#018x} ({} bytes) anchor={:#018x}",
        b.seed,
        digests[0],
        reps[0].stdout.len(),
        anchor_digests[0]
    );

    let stdout = &reps[0].stdout;
    let passed = shapes_passed(stdout);
    b.check(passed.is_some(), "compare table title not found");
    b.shapes_passed += passed.unwrap_or(0);
    let exim = exim_one_core(stdout);
    b.check(exim.is_some(), "Figure 5 exim row not found");
    let exim = exim.unwrap_or(f64::NAN);
    println!(
        "compare: {} shapes PASS; Figure 5 exim at one core {exim}x",
        passed.unwrap_or(0)
    );

    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let slowdown = b.reference.slowdown();
    b.layer("reference.slowdown", slowdown, "ratio");
    let anchor_s = anchors.median_rep_s(0..1) / ANCHORS as f64;
    b.host_time("setup_s", median(&b.setups), slowdown);
    b.host_time("sim_s_per_host_s", 1.0 / anchor_s, slowdown);
    b.host_time("suite_wall_s", median(&walls), slowdown);
    b.e2e
        .insert("paper_log_err", (exim / PAPER_EXIM_1CORE).ln().abs());
    println!(
        "suite_wall_s median {:.3} over {} reps {walls:?}; anchor second {anchor_s:.4} s \
         (median over gaps), p90 {:.4} s over {} anchors",
        median(&walls),
        walls.len(),
        anchors.quantile(0.9),
        anchors.all().len()
    );

    if b.traced {
        for (i, id) in ALL_EXPERIMENTS.iter().enumerate() {
            let w: Vec<f64> = reps.iter().map(|r| r.walls[i]).collect();
            b.layer(format!("runner.{id}.wall_s"), median(&w), "s");
        }
        let cells: Vec<f64> = reps.iter().flat_map(|r| r.cells.iter().copied()).collect();
        let busy: Vec<f64> = reps
            .iter()
            .map(|r| r.cells.iter().sum::<f64>() / (r.wall * jobs as f64))
            .collect();
        b.layer("runner.cells", reps[0].cells.len() as f64, "count");
        b.layer("runner.cell_s.p50", quantile(&cells, 0.5), "s");
        b.layer("runner.cell_s.p90", quantile(&cells, 0.9), "s");
        b.layer("runner.busy_fraction", median(&busy), "ratio");
        b.layer(
            "runner.failed_cells",
            reps.iter().map(|r| r.failed).sum::<u64>() as f64,
            "count",
        );
        let render: Vec<f64> = reps.iter().map(|r| r.render_s * 1e6).collect();
        b.layer("metrics.render_us", median(&render), "us");
        b.layer(
            "machine.build_us",
            median(&b.tracer.durations("machine.new")) / 1e3,
            "us",
        );
        b.layer("machine.builds", suite_shapes().len() as f64, "count");
        b.layer(
            "machine.host_ms_per_sim_s.baseline",
            anchor_s * 1e3,
            "ms/sim_s",
        );
    }
}
