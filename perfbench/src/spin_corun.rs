//! `spin-corun`: the Figure 5 exim + swaptions 2:1 co-run on the
//! 12-pCPU testbed, once under the baseline and once under one
//! micro-sliced core, on one thread.
//!
//! It is engine-bound — event queue, handlers, guest step, scheduler,
//! spinlocks and pause-loop exits — with no runner, fork, scenario parse
//! or adaptive policy, so a runner-side change should leave it alone.
//! The horizon passes the knee near 7.5 simulated seconds: swaptions
//! finishes its iterations there, exim runs alone, and the host cost of
//! each simulated 100 ms roughly triples. Both phases are timed; the
//! paper's throughput comparison is taken inside the co-run phase.

use crate::chunks::Chunks;
use crate::layers::{self, fingerprint};
use crate::stats::{median, mix};
use crate::Bench;
use hypervisor::{BaselinePolicy, Machine, MachineConfig, SchedPolicy, VmSpec};
use microslice::MicroslicePolicy;
use simcore::ids::VmId;
use simcore::time::{SimDuration, SimTime};
use std::time::Instant;
use workloads::{scenarios, Workload};

/// Simulated length of one timed chunk.
const CHUNK: SimDuration = SimDuration::from_millis(100);
/// Simulated interval between host samples (see `Bench::sample_host`).
pub const REFERENCE_EVERY_MS: u64 = 1_000;
/// Simulated horizon of every machine, past the knee.
const HORIZON: SimTime = SimTime::from_millis(9_000);
/// Throughput window: after a warm-up, as Figure 5 measures, and before
/// swaptions finishes, so both VMs run throughout.
const WINDOW: (SimTime, SimTime) = (SimTime::from_millis(2_000), SimTime::from_millis(6_000));
/// Figure 5: exim's throughput improvement with one micro-sliced core.
pub const PAPER_EXIM_1CORE: f64 = 3.9;
/// Repetitions run even when `--seconds` is shorter.
const MIN_REPS: u64 = 4;
/// Machine labels, in build order.
const LABELS: [&str; 2] = ["baseline", "micro1"];

fn build(seed: u64, which: usize) -> Machine {
    let mut cfg = MachineConfig::paper_testbed();
    cfg.seed = mix(seed, 0x5b1c);
    let n = cfg.num_pcpus;
    let specs: Vec<VmSpec> = vec![
        scenarios::vm_with_iters(Workload::Exim, n, None),
        scenarios::vm_with_iters(Workload::Swaptions, n, None),
    ];
    let policy: Box<dyn SchedPolicy> = match which {
        0 => Box::new(BaselinePolicy),
        _ => Box::new(MicroslicePolicy::fixed(1)),
    };
    Machine::new(cfg, specs, policy)
}

/// Builds both machines, each a `machine.new` span; returns them and
/// the summed construction seconds.
fn build_pair(b: &mut Bench) -> ([Machine; 2], f64) {
    let seed = b.seed;
    let (m0, d0) = b.tracer.time("machine.new", || build(seed, 0));
    let (m1, d1) = b.tracer.time("machine.new", || build(seed, 1));
    ([m0, m1], (d0 + d1).as_secs_f64())
}

/// The workload's set-up: both machines built; returns the seconds.
fn setup(b: &mut Bench) -> f64 {
    build_pair(b).1
}

/// Work units per simulated second between the two window readings.
fn rate(work: [u64; 2]) -> f64 {
    (work[1] - work[0]) as f64 / (WINDOW.1 - WINDOW.0).as_secs_f64()
}

pub fn run(b: &mut Bench) {
    b.warm_up(setup);
    let mut chunks = Chunks::default();
    let mut digests = Vec::new();
    let mut last: Option<[Machine; 2]> = None;
    // Work at the window edges: `work[machine][vm][edge]`.
    let mut work = [[[0u64; 2]; 2]; 2];
    let started = Instant::now();
    // Whether each machine ran cleanly in every repetition.
    let mut ok = [true; 2];
    let mut rep = 0u64;
    while rep < MIN_REPS || started.elapsed().as_secs_f64() < b.seconds {
        let open = b.begin_rep(rep);
        let (mut ms, _) = build_pair(b);
        chunks.begin_rep(2);
        let mut t = SimTime::ZERO;
        while t < HORIZON {
            if t.as_millis().is_multiple_of(REFERENCE_EVERY_MS) {
                b.sample_host(setup);
            }
            t += CHUNK;
            for (k, m) in ms.iter_mut().enumerate() {
                let (r, d) = b.tracer.time("machine.run_until", || m.run_until(t));
                ok[k] &= r.is_ok();
                chunks.push(k, d.as_secs_f64());
            }
            for (edge, at) in [WINDOW.0, WINDOW.1].into_iter().enumerate() {
                if t == at {
                    for (k, m) in ms.iter().enumerate() {
                        for (vm, w) in work[k].iter_mut().enumerate() {
                            w[edge] = m.vm_work_done(VmId(vm as u16));
                        }
                    }
                }
            }
        }
        b.end_rep(open, rep);
        for (k, m) in ms.iter().enumerate() {
            ok[k] &= m.stats.counters.get("sim_errors") == 0;
        }
        digests.push(ms.iter().map(fingerprint).collect::<Vec<_>>());
        last = Some(ms);
        rep += 1;
    }
    let ms = last.expect("at least MIN_REPS repetitions ran");
    for (k, m) in ms.iter().enumerate() {
        b.check(ok[k], format!("{} failed: {:?}", LABELS[k], m.error()));
    }
    b.check(
        digests.windows(2).all(|w| w[0] == w[1]),
        "repetitions of one seed disagree on the machine fingerprints",
    );
    b.check(chunks.aligned(), "repetitions ran different chunk counts");
    println!(
        "digest seed={} baseline={:#018x} micro1={:#018x}",
        b.seed, digests[0][0], digests[0][1]
    );

    let exim = [0, 1].map(|k| rate(work[k][0]));
    let swaptions = [0, 1].map(|k| rate(work[k][1]));
    let improvement = exim[1] / exim[0];
    let ple = [0, 1].map(|k| ms[k].stats.counters.get("ple_exits"));
    println!(
        "exim 1-core improvement {improvement:.4}x (paper {PAPER_EXIM_1CORE}x); \
         swaptions rate kept {:.4}; ple exits {} -> {}",
        swaptions[1] / swaptions[0],
        ple[0],
        ple[1]
    );
    b.shape(
        improvement > 1.0,
        "Figure 5: one micro core raises exim throughput",
    );
    b.shape(
        ple[1] < ple[0],
        "Figure 7: one micro core cuts exim's PLE yields",
    );
    b.shape(
        swaptions[1] / swaptions[0] > 0.85,
        "Figure 5: swaptions keeps >85% of its baseline rate",
    );

    let sim_s = 2.0 * HORIZON.as_secs_f64();
    let host_s = [chunks.median_rep_s(0..1), chunks.median_rep_s(1..2)];
    println!(
        "sim_s_per_host_s (raw): median {:.4}, p10 {:.4} over {} reps x {} chunks",
        sim_s / chunks.median_rep_s(0..2),
        sim_s / chunks.rep_quantile(0.9),
        chunks.reps(),
        chunks.all().len() / chunks.reps().max(1)
    );
    let slowdown = b.reference.slowdown();
    b.layer("reference.slowdown", slowdown, "ratio");
    b.host_time("setup_s", median(&b.setups), slowdown);
    b.host_time(
        "sim_s_per_host_s",
        sim_s / chunks.median_rep_s(0..2),
        slowdown,
    );
    b.host_time("suite_wall_s", median(&b.walls.concat()), slowdown);
    b.e2e
        .insert("paper_log_err", (improvement / PAPER_EXIM_1CORE).ln().abs());

    if b.traced {
        let per_sim_s = 1e3 / HORIZON.as_secs_f64();
        b.layer(
            "machine.build_us",
            median(&b.tracer.durations("machine.new")) / 1e3,
            "us",
        );
        b.layer("machine.builds", 2.0, "count");
        b.layer(
            "machine.host_ms_per_sim_s.baseline",
            host_s[0] * per_sim_s,
            "ms/sim_s",
        );
        b.layer(
            "machine.host_ms_per_sim_s.micro1",
            host_s[1] * per_sim_s,
            "ms/sim_s",
        );
        layers::chunk_layers(b, &chunks);
        let ns = layers::event_push_pop_ns(b);
        b.layer("event.push_pop_ns", ns, "ns");
        let us = layers::snapshot_fork_us(b, &ms[0]);
        b.layer("snapshot.fork_us", us, "us");
        layers::counts_per_sim_s(b, &[&ms[0], &ms[1]]);
    }
}
