//! The per-layer metric catalogue and the layer probes every workload
//! shares: machine statistics read through `Machine::stats`, and timed
//! calls into single public functions on fixed inputs.

use crate::chunks::Chunks;
use crate::stats::median;
use crate::Bench;
use hypervisor::Machine;
use ksym::{Linux44Map, Whitelist};
use simcore::event::EventQueue;
use simcore::time::SimTime;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer metrics that are not per-experiment runner walls, with
/// units. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario_file.parse_us", "us"),
    ("scenario_file.validate_us", "us"),
    ("scenario_file.to_parts_us", "us"),
    ("machine.build_us", "us"),
    ("machine.builds", "count"),
    ("machine.host_ms_per_sim_s.baseline", "ms/sim_s"),
    ("machine.host_ms_per_sim_s.micro1", "ms/sim_s"),
    ("machine.host_ms_per_sim_s.iperf", "ms/sim_s"),
    ("machine.host_ms_per_sim_s.dedup", "ms/sim_s"),
    ("machine.chunk_ms.p50", "ms"),
    ("machine.chunk_ms.p90", "ms"),
    ("machine.chunk_ms.early", "ms"),
    ("machine.chunk_ms.late", "ms"),
    ("event.push_pop_ns", "ns"),
    ("snapshot.fork_us", "us"),
    ("sched.ctx_switches", "1/sim_s"),
    ("sched.preemptions", "1/sim_s"),
    ("sched.boosts", "1/sim_s"),
    ("sched.steals", "1/sim_s"),
    ("guest.ple_exits", "1/sim_s"),
    ("guest.ipi_yields", "1/sim_s"),
    ("guest.halt_yields", "1/sim_s"),
    ("guest.resched_ipis", "1/sim_s"),
    ("guest.tlb_shootdowns", "1/sim_s"),
    ("guest.virqs", "1/sim_s"),
    ("policy.micro_migrations", "count"),
    ("policy.pool_resizes", "count"),
    ("policy.overhead_ms_per_sim_s", "ms/sim_s"),
    ("ksym.classify_ns", "ns"),
    ("runner.cells", "count"),
    ("runner.cell_s.p50", "s"),
    ("runner.cell_s.p90", "s"),
    ("runner.busy_fraction", "ratio"),
    ("runner.failed_cells", "count"),
    ("metrics.render_us", "us"),
    ("trace.overhead_pct", "%"),
    ("reference.slowdown", "ratio"),
];

/// Inserts a 0 for every per-layer metric the workload did not set, so
/// every traced run reports the same metric set.
pub fn fill_absent(layer: &mut BTreeMap<String, (f64, &'static str)>) {
    for &(name, unit) in PER_LAYER {
        layer.entry(name.to_string()).or_insert((0.0, unit));
    }
    for id in experiments::ALL_EXPERIMENTS {
        layer
            .entry(format!("runner.{id}.wall_s"))
            .or_insert((0.0, "s"));
    }
}

/// Scheduler and guest counters reported per simulated second.
const COUNTS: [(&str, &str); 10] = [
    ("sched.ctx_switches", "ctx_switches"),
    ("sched.preemptions", "preemptions"),
    ("sched.boosts", "boosts"),
    ("sched.steals", "steals"),
    ("guest.ple_exits", "ple_exits"),
    ("guest.ipi_yields", "ipi_yields"),
    ("guest.halt_yields", "halt_yields"),
    ("guest.resched_ipis", "resched_ipis"),
    ("guest.tlb_shootdowns", "tlb_shootdowns"),
    ("guest.virqs", "virqs"),
];

/// Sets the scheduler and guest counts, summed over `machines` and
/// divided by their summed simulated seconds. Exact: they depend only
/// on the seed.
pub fn counts_per_sim_s(bench: &mut Bench, machines: &[&Machine]) {
    let sim_s: f64 = machines.iter().map(|m| m.now().as_secs_f64()).sum();
    for (metric, counter) in COUNTS {
        let total: u64 = machines.iter().map(|m| m.stats.counters.get(counter)).sum();
        bench.layer(metric, total as f64 / sim_s, "1/sim_s");
    }
}

/// Digest of everything a machine's statistics expose: counters, per-VM
/// work, yields and CPU time, and the simulated clock. Two runs of one
/// input must agree on it exactly.
pub fn fingerprint(m: &Machine) -> u64 {
    use crate::stats::{fnv, FNV_SEED};
    let mut h = fnv(FNV_SEED, &m.now().as_nanos().to_le_bytes());
    for (name, n) in m.stats.counters.iter() {
        h = fnv(h, name.as_bytes());
        h = fnv(h, &n.to_le_bytes());
    }
    for (i, vm) in m.stats.per_vm.iter().enumerate() {
        let id = simcore::ids::VmId(i as u16);
        h = fnv(h, &m.vm_work_done(id).to_le_bytes());
        h = fnv(h, &vm.yields.total().to_le_bytes());
        h = fnv(h, &vm.cpu_time.as_nanos().to_le_bytes());
        h = fnv(h, &vm.micro_migrations.to_le_bytes());
    }
    h
}

/// Timer horizons the machine schedules, 4 µs to 30 ms: spin and IPI
/// waits, micro slices, vIRQ and softIRQ work, credit ticks and normal
/// slices.
const HORIZONS_NS: [u64; 8] = [
    4_000, 10_000, 25_000, 100_000, 400_000, 1_000_000, 10_000_000, 30_000_000,
];

/// Median ns per push+pop pair of `simcore::event::EventQueue` on a
/// fixed stream: 64 pending events (one per vCPU and timer of a
/// 2x12-vCPU machine, rounded up), each pop rescheduling one event at a
/// horizon drawn from [`HORIZONS_NS`].
pub fn event_push_pop_ns(bench: &mut Bench) -> f64 {
    const PENDING: u64 = 64;
    const OPS: u64 = 200_000;
    let mut samples = Vec::new();
    for _ in 0..7 {
        let ((), d) = bench.tracer.time("probe.event_queue", || {
            let mut q = EventQueue::new();
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let next = |x: &mut u64| {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                HORIZONS_NS[(*x % HORIZONS_NS.len() as u64) as usize] + (*x >> 40) % 1_000
            };
            for i in 0..PENDING {
                q.push(SimTime::from_nanos(next(&mut x)), i);
            }
            let mut acc = 0u64;
            for _ in 0..OPS {
                let (t, v) = q.pop().expect("the stream keeps PENDING events queued");
                acc = acc.wrapping_add(v);
                q.push(t + simcore::time::SimDuration::from_nanos(next(&mut x)), v);
            }
            black_box(acc);
        });
        samples.push(d.as_nanos() as f64 / OPS as f64);
    }
    median(&samples)
}

/// Median ns per `Whitelist::classify` call over every critical and
/// ordinary Linux 4.4 function the symbol map knows.
pub fn ksym_classify_ns(bench: &mut Bench) -> f64 {
    const ROUNDS: usize = 2_000;
    let map = Linux44Map::new();
    let wl = Whitelist::linux44();
    let ips: Vec<u64> = ksym::linux44::CRITICAL_FUNCTIONS
        .iter()
        .chain(ksym::linux44::ORDINARY_FUNCTIONS)
        .map(|n| map.ip_in(n))
        .collect();
    let mut samples = Vec::new();
    for _ in 0..7 {
        let ((), d) = bench.tracer.time("probe.ksym_classify", || {
            let mut critical = 0usize;
            for _ in 0..ROUNDS {
                for &ip in black_box(&ips) {
                    critical += usize::from(wl.classify(map.table(), ip).is_critical());
                }
            }
            black_box(critical);
        });
        samples.push(d.as_nanos() as f64 / (ROUNDS * ips.len()) as f64);
    }
    median(&samples)
}

/// Median µs of `Machine::snapshot` + `Snapshot::fork` on `warm`.
pub fn snapshot_fork_us(bench: &mut Bench, warm: &Machine) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..9 {
        let (fork, d) = bench
            .tracer
            .time("snapshot.fork", || warm.snapshot().fork());
        black_box(fork.now());
        samples.push(d.as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Chunk-time quantiles and the first- and last-fifth medians.
pub fn chunk_layers(b: &mut Bench, chunks: &Chunks) {
    b.layer("machine.chunk_ms.p50", chunks.quantile(0.5) * 1e3, "ms");
    b.layer("machine.chunk_ms.p90", chunks.quantile(0.9) * 1e3, "ms");
    b.layer(
        "machine.chunk_ms.early",
        chunks.median_in(0.0..0.2) * 1e3,
        "ms",
    );
    b.layer(
        "machine.chunk_ms.late",
        chunks.median_in(0.8..1.0) * 1e3,
        "ms",
    );
}
