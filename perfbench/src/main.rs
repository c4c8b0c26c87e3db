//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload spin-corun|micro-io-mix|paper-suite
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the spans land in
//! `.bench_out/spans-<workload>-seed<N>.json`. `README.md` beside this
//! crate explains every workload and metric.

mod chunks;
mod layers;
mod micro_io_mix;
mod paper_suite;
mod reference;
mod spin_corun;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::Tracer;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 30;

/// Set-up runs discarded before timing: a process's first constructions
/// pay for heap growth and page faults, several times the steady cost.
const SETUP_WARMUP: usize = 30;
/// Set-up runs per batch; each batch records its median.
const SETUP_BATCH: usize = 5;

/// End-to-end metric names in report order, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_s_per_host_s", "sim_s/s"),
    ("suite_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("shape_checks_passed", "count"),
    ("paper_log_err", "abs_ln_ratio"),
    ("failed_cell_ratio", "ratio"),
];

/// One benchmark run's state: options, the tracer, the correctness
/// tally, and the metrics the workload fills in.
pub struct Bench {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Measurement budget in seconds (`--seconds`).
    pub seconds: f64,
    /// Span recorder; on for `--trace 1`.
    pub tracer: Tracer,
    /// Cells, simulations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Paper-shape checks that held.
    pub shapes_passed: u64,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name, with units.
    pub layer: BTreeMap<String, (f64, &'static str)>,
    /// `--trace 1`: odd repetitions keep spans, even ones do not.
    pub traced: bool,
    /// Wall seconds of untraced and traced repetitions.
    pub walls: [Vec<f64>; 2],
    /// Host-speed reference sampled between measured calls.
    pub reference: reference::Reference,
    /// Median seconds of each set-up batch.
    pub setups: Vec<f64>,
}

impl Bench {
    /// Counts one attempted operation that `ok` says succeeded or not.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts one paper-shape check (not a correctness check: a shape
    /// that does not hold lowers `shape_checks_passed` only).
    pub fn shape(&mut self, holds: bool, what: &str) {
        println!("shape {}: {what}", if holds { "PASS" } else { "DEVIATION" });
        self.shapes_passed += u64::from(holds);
    }

    /// Starts repetition `rep`: stamps its spans and, in a traced run,
    /// keeps spans for odd repetitions only. Returns the open `rep` span.
    pub fn begin_rep(&mut self, rep: u64) -> trace::Open {
        self.tracer.set_id(rep);
        self.tracer.set_on(self.traced && rep % 2 == 1);
        self.tracer.open("rep")
    }

    /// Ends a repetition opened by [`Bench::begin_rep`]; returns its
    /// wall seconds.
    pub fn end_rep(&mut self, open: trace::Open, rep: u64) -> f64 {
        let secs = self.tracer.close(open).as_secs_f64();
        self.walls[usize::from(self.traced && rep % 2 == 1)].push(secs);
        self.tracer.set_on(self.traced);
        secs
    }

    /// Runs `setup` [`SETUP_WARMUP`] times, unrecorded.
    pub fn warm_up(&mut self, mut setup: impl FnMut(&mut Bench) -> f64) {
        self.tracer.set_on(false);
        for _ in 0..SETUP_WARMUP {
            setup(self);
        }
        self.tracer.set_on(self.traced);
    }

    /// Samples the host between measured calls: one reference sample (a
    /// `reference` span) and one batch of [`SETUP_BATCH`] set-up runs,
    /// whose median joins `setups`. Set-up time switches between a fast
    /// and a slow level from one second to the next, so its samples are
    /// spread over the whole run rather than taken in one burst.
    pub fn sample_host(&mut self, mut setup: impl FnMut(&mut Bench) -> f64) {
        let open = self.tracer.open("reference");
        self.reference.sample();
        self.tracer.close(open);
        let batch: Vec<f64> = (0..SETUP_BATCH).map(|_| setup(self)).collect();
        self.setups.push(stats::median(&batch));
    }

    /// Records the host-time metric `name` measured as `raw`, reported
    /// at the reference's nominal host speed: divided by `slowdown`, or
    /// multiplied for a rate.
    pub fn host_time(&mut self, name: &'static str, raw: f64, slowdown: f64) {
        let value = if name == "sim_s_per_host_s" {
            raw * slowdown
        } else {
            raw / slowdown
        };
        println!("{name}: {raw:.6e} raw, host slowdown {slowdown:.4}, {value:.6e} normalised");
        self.e2e.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.insert(name.into(), (value, unit));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload spin-corun|micro-io-mix|paper-suite \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let run: fn(&mut Bench) = match workload.as_str() {
        "spin-corun" => spin_corun::run,
        "micro-io-mix" => micro_io_mix::run,
        "paper-suite" => paper_suite::run,
        _ => usage(),
    };
    let mut bench = Bench {
        seed,
        seconds: seconds as f64,
        tracer: Tracer::new(traced),
        attempted: 0,
        failed: 0,
        shapes_passed: 0,
        e2e: BTreeMap::new(),
        layer: BTreeMap::new(),
        traced,
        walls: [Vec::new(), Vec::new()],
        reference: reference::Reference::default(),
        setups: Vec::new(),
    };
    println!(
        "perfbench {workload} seed={seed} seconds={seconds} trace={}",
        u8::from(traced)
    );
    run(&mut bench);
    bench.e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    bench
        .e2e
        .insert("shape_checks_passed", bench.shapes_passed as f64);
    if traced {
        let [plain, spanned] = &bench.walls;
        let overhead = (stats::median(spanned) / stats::median(plain) - 1.0) * 100.0;
        println!(
            "tracing overhead: {overhead:+.2}% (median rep wall, {} traced vs {} untraced reps)",
            spanned.len(),
            plain.len()
        );
        bench.layer("trace.overhead_pct", overhead, "%");
        layers::fill_absent(&mut bench.layer);
        let path = std::path::PathBuf::from(format!(".bench_out/spans-{workload}-seed{seed}.json"));
        match bench.tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} ({} spans)",
                path.display(),
                bench.tracer.spans().len()
            ),
            Err(e) => bench.check(false, format!("writing {}: {e}", path.display())),
        }
        print_self_times(&bench.tracer);
    }
    // A value that is not a number fails a check and reads 0.
    let mut bad = Vec::new();
    for (name, value) in bench.e2e.iter_mut() {
        if !value.is_finite() {
            bad.push(name.to_string());
            *value = 0.0;
        }
    }
    for (name, (value, _)) in bench.layer.iter_mut() {
        if !value.is_finite() {
            bad.push(name.clone());
            *value = 0.0;
        }
    }
    for name in bad {
        bench.check(false, format!("{name} is not finite"));
    }
    // Laplace's rule of succession: the estimated failure probability
    // after `failed` failures in `attempted` trials. Never 0, so its
    // spread and ratio to the parent stay defined; any failure at least
    // doubles it.
    bench.e2e.insert(
        "failed_cell_ratio",
        (bench.failed + 1) as f64 / (bench.attempted + 2) as f64,
    );

    let metrics: Vec<(String, f64, &str)> = if traced {
        bench
            .layer
            .iter()
            .map(|(k, &(v, u))| (k.clone(), v, u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    bench.e2e.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    };
    println!("{:<44} {:>18}  unit", "metric", "value");
    for (name, value, unit) in &metrics {
        println!("{name:<44} {value:>18.6}  {unit}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = bench.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        bench.attempted.max(1),
        bench.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Prints the traced run's time per span name, total and self.
fn print_self_times(tracer: &Tracer) {
    println!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in tracer.totals() {
        println!(
            "{name:<28} {n:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
