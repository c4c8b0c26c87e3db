//! `micro-io-mix`: Algorithm 1 (the adaptive micro-sliced pool) on one
//! thread, against the baseline on the same inputs. The Table 4c mixed
//! iPerf + swaptions co-run runs for a fixed window, then dedup +
//! swaptions runs to completion; both come from scenario files parsed
//! through `workloads::scenario_file`.
//!
//! It drives the same engine as `spin-corun` with a different event
//! mix — vIRQs and softIRQs, TLB-shootdown IPIs, micro migrations and
//! pool resizes instead of pause-loop churn — plus the policy's
//! detection and pool sizing, the kernel-symbol classifier, and the
//! guest network and TLB layers.

use crate::chunks::Chunks;
use crate::layers::{self, fingerprint};
use crate::spin_corun::REFERENCE_EVERY_MS;
use crate::stats::{median, mix};
use crate::Bench;
use hypervisor::{BaselinePolicy, Machine, MachineConfig, SchedPolicy, VmSpec};
use microslice::{AdaptiveConfig, MicroslicePolicy};
use simcore::ids::VmId;
use simcore::time::{SimDuration, SimTime};
use std::time::Instant;
use workloads::scenario_file::{self, Scenario};

const IPERF: (&str, &str) = (
    "mixed-iperf-corun",
    include_str!("../scenarios/mixed-iperf-corun.toml"),
);
const DEDUP: (&str, &str) = ("dedup-corun", include_str!("../scenarios/dedup-corun.toml"));
/// Simulated length of one timed chunk.
const CHUNK: SimDuration = SimDuration::from_millis(100);
/// Simulated window of the iPerf co-run.
const IPERF_WINDOW: SimTime = SimTime::from_millis(6_000);
/// Dedup must finish before this; reaching it is a failure.
const DEDUP_HORIZON: SimTime = SimTime::from_secs(60);
/// Figure 9: mixed-vCPU iPerf TCP bandwidth, ~420 → ~690 Mbit/s.
const PAPER_IPERF_GAIN: f64 = 690.0 / 420.0;
/// Table 4c, mixed co-run under the baseline: jitter (ms), bandwidth
/// (Mbit/s).
const PAPER_MIXED_JITTER_MS: f64 = 9.25;
const PAPER_MIXED_MBPS: f64 = 436.0;
/// Table 4b: dedup's mean TLB-sync latency co-run under the baseline (µs).
const PAPER_DEDUP_TLB_US: f64 = 6354.0;
const MIN_REPS: u64 = 4;
/// Machines in build order: (scenario, adaptive policy?).
const MACHINES: [(&str, bool); 4] = [
    ("iperf adaptive", true),
    ("iperf baseline", false),
    ("dedup adaptive", true),
    ("dedup baseline", false),
];

/// Parses and validates one scenario file, one span each.
fn load(b: &mut Bench, (name, text): (&str, &str)) -> Option<Scenario> {
    let (parsed, _) = b.tracer.time("scenario_file.parse", || {
        scenario_file::parse_str(name, text)
    });
    let sc = match parsed {
        Ok(sc) => sc,
        Err(e) => {
            b.check(false, format!("{name}: {e}"));
            return None;
        }
    };
    let (valid, _) = b.tracer.time("scenario_file.validate", || sc.validate());
    if let Err(errs) = valid {
        b.check(false, format!("{name}: {}", errs.join("; ")));
        return None;
    }
    Some(sc)
}

/// Converts a validated scenario into one machine's parts, seeded from
/// the benchmark seed.
fn parts(b: &mut Bench, sc: &Scenario, salt: u64) -> (MachineConfig, Vec<VmSpec>) {
    let ((mut cfg, specs), _) = b.tracer.time("scenario_file.to_parts", || sc.to_parts());
    cfg.seed = mix(b.seed, salt);
    (cfg, specs)
}

fn policy(adaptive: bool) -> Box<dyn SchedPolicy> {
    if adaptive {
        Box::new(MicroslicePolicy::adaptive(AdaptiveConfig::default()))
    } else {
        Box::new(BaselinePolicy)
    }
}

/// The whole set-up: both scenario files and all four machines. Returns
/// the machines and the set-up seconds.
fn setup(b: &mut Bench) -> Option<(Vec<Machine>, f64)> {
    let started = Instant::now();
    let scenarios = [load(b, IPERF)?, load(b, DEDUP)?];
    let ms = MACHINES
        .iter()
        .enumerate()
        .map(|(i, &(_, adaptive))| {
            // Both policies of one scenario share its seed.
            let (cfg, specs) = parts(b, &scenarios[i / 2], (i / 2) as u64);
            b.tracer
                .time("machine.new", || Machine::new(cfg, specs, policy(adaptive)))
                .0
        })
        .collect();
    Some((ms, started.elapsed().as_secs_f64()))
}

/// Seconds of one whole set-up; the scenario files are fixed, so after
/// the first load succeeds every later one does.
fn setup_secs(b: &mut Bench) -> f64 {
    setup(b).map_or(f64::NAN, |(_, secs)| secs)
}

/// One finished repetition's machines, the pool resizes seen, and
/// whether each machine ran cleanly (and, for dedup, finished).
struct Rep {
    ms: Vec<Machine>,
    resizes: u64,
    ok: [bool; 4],
}

/// Whether both VMs of a completion-mode machine finished.
fn finished(m: &Machine) -> bool {
    m.vm_finished_at(VmId(0)).is_some() && m.vm_finished_at(VmId(1)).is_some()
}

/// Runs one repetition's simulations in interleaved chunks.
fn simulate(b: &mut Bench, chunks: &mut Chunks, mut ms: Vec<Machine>) -> Rep {
    chunks.begin_rep(ms.len());
    let mut ok = [true; 4];
    let mut resizes = 0u64;
    let mut pools: Vec<usize> = ms.iter().map(Machine::micro_cores).collect();
    let mut t = SimTime::ZERO;
    let mut pending = true;
    while pending {
        if t.as_millis().is_multiple_of(REFERENCE_EVERY_MS) {
            b.sample_host(setup_secs);
        }
        t += CHUNK;
        pending = false;
        for (k, m) in ms.iter_mut().enumerate() {
            let (r, d) = if k < 2 {
                if t > IPERF_WINDOW {
                    continue;
                }
                b.tracer
                    .time("machine.run_until", || m.run_until(t).map(|()| true))
            } else {
                if finished(m) {
                    continue;
                }
                b.tracer.time("machine.run_until_all_finished", || {
                    m.run_until_all_finished(t)
                })
            };
            ok[k] &= r.is_ok();
            pending |= match r {
                Ok(done) => (k < 2 && t < IPERF_WINDOW) || (k >= 2 && !done && t < DEDUP_HORIZON),
                Err(_) => false,
            };
            chunks.push(k, d.as_secs_f64());
            if m.micro_cores() != pools[k] {
                pools[k] = m.micro_cores();
                resizes += u64::from(MACHINES[k].1);
            }
        }
    }
    for (k, m) in ms.iter().enumerate() {
        ok[k] &= m.stats.counters.get("sim_errors") == 0;
        if k >= 2 {
            ok[k] &= finished(m);
        }
    }
    Rep { ms, resizes, ok }
}

pub fn run(b: &mut Bench) {
    // A scenario file that fails to load fails the run here.
    if setup(b).is_none() {
        return;
    }
    b.warm_up(setup_secs);
    let mut chunks = Chunks::default();
    let mut digests = Vec::new();
    let mut last: Option<Rep> = None;
    let started = Instant::now();
    let mut ok = [true; 4];
    let mut rep = 0u64;
    while rep < MIN_REPS || started.elapsed().as_secs_f64() < b.seconds {
        let open = b.begin_rep(rep);
        let Some((ms, _)) = setup(b) else { return };
        let done = simulate(b, &mut chunks, ms);
        b.end_rep(open, rep);
        digests.push(done.ms.iter().map(fingerprint).collect::<Vec<_>>());
        for (all, this) in ok.iter_mut().zip(done.ok) {
            *all &= this;
        }
        last = Some(done);
        rep += 1;
    }
    let Rep { ms, resizes, .. } = last.expect("at least MIN_REPS repetitions ran");
    for (k, m) in ms.iter().enumerate() {
        b.check(
            ok[k],
            format!(
                "{} failed or did not finish: {:?}",
                MACHINES[k].0,
                m.error()
            ),
        );
    }
    b.check(
        digests.windows(2).all(|w| w[0] == w[1]),
        "repetitions of one seed disagree on the machine fingerprints",
    );
    b.check(chunks.aligned(), "repetitions ran different chunk counts");
    let hex: Vec<String> = digests[0].iter().map(|d| format!("{d:#018x}")).collect();
    println!("digest seed={} {}", b.seed, hex.join(" "));

    fn flow(m: &Machine) -> &guest::net::FlowState {
        &m.vm(VmId(0)).kernel.flows[0]
    }
    let jitter = [0, 1].map(|k| flow(&ms[k]).jitter_ms());
    let tput = [0, 1].map(|k| flow(&ms[k]).throughput_mbps(ms[k].now()));
    let tlb = [2, 3].map(|k| ms[k].vm(VmId(0)).kernel.tlb_latency.mean().as_micros_f64());
    let finish = [2, 3].map(|k| {
        ms[k]
            .vm_finished_at(VmId(0))
            .map_or(f64::NAN, SimTime::as_secs_f64)
    });
    println!(
        "iperf adaptive vs baseline: jitter {:.3} vs {:.3} ms, {:.1} vs {:.1} Mbit/s; \
         dedup: TLB sync {:.1} vs {:.1} us, finish {:.3} vs {:.3} s",
        jitter[0], jitter[1], tput[0], tput[1], tlb[0], tlb[1], finish[0], finish[1]
    );
    b.shape(
        jitter[0] < jitter[1],
        "Table 4c/Figure 9: adaptive pool cuts iPerf jitter",
    );
    b.shape(
        tput[0] > tput[1],
        "Figure 9: adaptive pool raises iPerf bandwidth",
    );
    b.shape(
        tlb[0] < tlb[1],
        "Table 4b: adaptive pool cuts dedup's TLB-sync latency",
    );
    // Mean absolute log error over the paper numbers this workload
    // reproduces; one ratio alone is too close to the paper for its
    // seed-to-seed variation to stay small beside it.
    let errors = [
        tput[0] / tput[1] / PAPER_IPERF_GAIN,
        jitter[1] / PAPER_MIXED_JITTER_MS,
        tput[1] / PAPER_MIXED_MBPS,
        tlb[1] / PAPER_DEDUP_TLB_US,
    ]
    .map(|ratio| ratio.ln().abs());
    println!("abs log errors vs the paper (Fig 9 gain, Table 4c jitter, Table 4c bandwidth, Table 4b TLB): {errors:.4?}");

    let sim_s: Vec<f64> = ms.iter().map(|m| m.now().as_secs_f64()).collect();
    let host: Vec<f64> = (0..ms.len())
        .map(|k| chunks.median_rep_s(k..k + 1))
        .collect();
    let slowdown = b.reference.slowdown();
    b.layer("reference.slowdown", slowdown, "ratio");
    b.host_time("setup_s", median(&b.setups), slowdown);
    let rate = sim_s.iter().sum::<f64>() / chunks.median_rep_s(0..ms.len());
    b.host_time("sim_s_per_host_s", rate, slowdown);
    b.host_time("suite_wall_s", median(&b.walls.concat()), slowdown);
    b.e2e.insert(
        "paper_log_err",
        errors.iter().sum::<f64>() / errors.len() as f64,
    );
    println!(
        "sim_s_per_host_s (raw): p10 {:.4} over {} reps x {} chunks; simulated seconds {:?}",
        sim_s.iter().sum::<f64>() / chunks.rep_quantile(0.9),
        chunks.reps(),
        chunks.all().len() / chunks.reps().max(1),
        sim_s
    );

    if b.traced {
        let ms_per = |k: usize| host[k] * 1e3 / sim_s[k];
        for (metric, span) in [
            ("scenario_file.parse_us", "scenario_file.parse"),
            ("scenario_file.validate_us", "scenario_file.validate"),
            ("scenario_file.to_parts_us", "scenario_file.to_parts"),
            ("machine.build_us", "machine.new"),
        ] {
            b.layer(metric, median(&b.tracer.durations(span)) / 1e3, "us");
        }
        b.layer("machine.builds", ms.len() as f64, "count");
        b.layer("machine.host_ms_per_sim_s.iperf", ms_per(0), "ms/sim_s");
        b.layer("machine.host_ms_per_sim_s.dedup", ms_per(2), "ms/sim_s");
        let overhead = (ms_per(0) - ms_per(1) + ms_per(2) - ms_per(3)) / 2.0;
        b.layer("policy.overhead_ms_per_sim_s", overhead, "ms/sim_s");
        let migrations = ms[0].stats.counters.get("micro_migrations")
            + ms[2].stats.counters.get("micro_migrations");
        b.layer("policy.micro_migrations", migrations as f64, "count");
        b.layer("policy.pool_resizes", resizes as f64, "count");
        layers::chunk_layers(b, &chunks);
        let ns = layers::ksym_classify_ns(b);
        b.layer("ksym.classify_ns", ns, "ns");
        layers::counts_per_sim_s(b, &ms.iter().collect::<Vec<_>>());
    }
}
