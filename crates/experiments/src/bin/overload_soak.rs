//! Overload-soak driver: a seeded matrix of offered load (1x..8x on the
//! bursty open-loop workload) crossed with fault plans, with the full
//! overload-control subsystem enabled — admission watermarks, retry
//! budgets with deterministic backoff, and per-peer circuit breakers.
//!
//! Every cell runs under the invariant auditor inside `System::run`; this
//! driver additionally enforces the graceful-degradation contract:
//!
//! * demand walks are never rejected (only deferred), at any load;
//! * at the 8x points, shed traffic is ≥90% background class
//!   (prefetch/migration/remote-walk) whenever anything was shed at all;
//! * the demand-latency p99 bound stays under the run length.
//!
//! The per-run counters (including the `overload` block) are written to
//! `BENCH_OVERLOAD.json` (see `experiments::run_json`).
//! `scenarios/overload_soak.scn` writes the matrix declaratively but pins
//! the fault-injector seeds to this bin's seed-1 values, where the bin
//! derives them per run seed (`soak_fault_plans(seed)`); the file is part
//! of the corpus `scn_check` compiles and the `scn` fuzz and round-trip
//! tests read.
//!
//! ```sh
//! cargo run --release -p experiments --bin overload_soak [SCALE] [SEEDS]
//! ```

use experiments::runner::{parallel_map, runs_json};
use experiments::{soak_fault_plans, soak_tables, RunSpec};
use mgpu::{OverloadConfig, RunMetrics, SystemConfig};
use workloads::WorkloadSpec;

/// Watermarks tuned for soak-scale queues (the shipped defaults are sized
/// for full-scale runs and would never engage at a CI-sized scale).
fn soak_overload() -> OverloadConfig {
    OverloadConfig {
        host_queue_high: 10,
        host_queue_low: 3,
        gpu_queue_high: 6,
        gpu_queue_low: 2,
        mshr_high: 24,
        mshr_low: 8,
        backoff_base: 200,
        backoff_cap: 3_200,
        ..OverloadConfig::enabled()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.1);
    let seeds: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    // simlint::allow(det-wallclock): harness progress timing, never fed into the sim
    let t0 = std::time::Instant::now();

    let mut cells = Vec::new();
    for seed in 1..=seeds.max(1) {
        for (plan_name, plan) in soak_fault_plans(seed) {
            for load in [1u64, 2, 4, 8] {
                cells.push((plan_name, plan.clone(), load, seed));
            }
        }
    }
    let total = cells.len();

    let runs: Vec<(u64, RunMetrics)> = parallel_map(cells, |(plan_name, plan, load, seed)| {
        let cfg = SystemConfig::builder()
            .gpus(4)
            .cus_per_gpu(4)
            .host_walkers(1)
            .seed(seed)
            .transfw(Some(soak_tables()))
            .placement(Some(uvm::PolicyKind::PrefetchNeighborhood { radius: 3 }))
            .overload(soak_overload())
            .faults(plan)
            .build();
        let spec = RunSpec::new(cfg, WorkloadSpec::Burst { scale, load })
            .labeled(format!("{plan_name}/{load}x seed {seed}"));
        let m = spec.run_or_panic("overload soak");
        assert_eq!(
            m.resilience.requests_retired, m.translation_requests,
            "{}: must retire every request exactly once",
            spec.label
        );
        let ov = &m.overload;
        assert_eq!(
            ov.demand_rejected, 0,
            "{}: demand must be deferred, never rejected: {ov:?}",
            spec.label
        );
        if load == 8 && ov.total_shed() > 0 {
            assert!(
                ov.background_shed() * 10 >= ov.total_shed() * 9,
                "{}: shed traffic must be ≥90% background: {ov:?}",
                spec.label
            );
        }
        let p99 = ov.demand_lat.percentile_bound(0.99);
        assert!(
            p99 < m.total_cycles,
            "{}: demand p99 bound {p99} exceeds run length {}",
            spec.label,
            m.total_cycles
        );
        eprintln!(
            "[overload-soak] {plan_name:>5}/{load}x seed {seed}: {} cycles, \
             shed={} (bg={}) deferred={} retries={} breaker_opens={} p99<={p99}",
            m.total_cycles,
            ov.total_shed(),
            ov.background_shed(),
            ov.demand_deferred,
            ov.retries_budgeted,
            ov.breaker_opens,
        );
        (seed, m)
    });

    let json = runs_json(&runs);
    std::fs::write("BENCH_OVERLOAD.json", &json).expect("write BENCH_OVERLOAD.json");
    eprintln!(
        "[overload-soak] {total} cells clean in {:.1?} (scale {scale}, {seeds} seed(s)) \
         -> BENCH_OVERLOAD.json",
        t0.elapsed(),
    );
}
