//! Oversubscription-soak driver: a seeded matrix of oversubscription ratio
//! (1x..4x of per-GPU capacity on the working-set-shift workload) crossed
//! with both eviction policies and fault plans, with the eviction engine
//! and thrash detector enabled throughout (overload control rides along at
//! its shipped watermarks, so the two pressure subsystems are exercised
//! together).
//!
//! Every cell runs under the invariant auditor inside `System::run` —
//! which already enforces retire-exactly-once and table agreement, and the
//! eviction engine's victim selection structurally exempts pinned
//! (PRT-pending / in-flight-forwarded) pages, a discipline `simcheck`
//! verifies exhaustively at small scope. This driver additionally enforces
//! the graceful-degradation contract at soak scale:
//!
//! * every translation request retires exactly once, eviction on;
//! * demand walks are never rejected, at any oversubscription ratio;
//! * the demand-latency p99 bound stays under the run length (pressure
//!   degrades throughput, it must not thrash-collapse the run);
//! * at the 4x points capacity pressure is real: evictions happened.
//!
//! The per-run counters (including the `oversub` block) are written to
//! `BENCH_OVERSUB.json` (see `experiments::run_json`).
//! `scenarios/oversub_soak.scn` writes the matrix declaratively but pins
//! the fault-injector seeds to this bin's seed-1 values, where the bin
//! derives them per run seed (`soak_fault_plans(seed)`); the file is part
//! of the corpus `scn_check` compiles and the `scn` fuzz and round-trip
//! tests read.
//!
//! ```sh
//! cargo run --release -p experiments --bin oversub_soak [SCALE] [SEEDS]
//! ```

use experiments::runner::{parallel_map, runs_json};
use experiments::{soak_fault_plans, soak_tables, RunSpec};
use mgpu::workload::Workload;
use mgpu::{OverloadConfig, OversubConfig, RunMetrics, SystemConfig};
use uvm::EvictPolicy;
use workloads::WorkloadSpec;

/// Oversubscription tuned for soak-scale runs: the shipped defaults size
/// the thrash gate for full-scale refault storms and would never engage at
/// a CI-sized scale.
fn soak_oversub(capacity: usize, policy: EvictPolicy) -> OversubConfig {
    OversubConfig {
        policy,
        thrash_high: 6,
        thrash_low: 2,
        refault_window: 20_000,
        hot_protect: 16,
        ..OversubConfig::with_capacity(capacity)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.1);
    let seeds: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    // simlint::allow(det-wallclock): harness progress timing, never fed into the sim
    let t0 = std::time::Instant::now();

    const GPUS: u16 = 4;
    let footprint = workloads::oversub_shift().footprint_pages() as usize;

    let mut cells = Vec::new();
    for seed in 1..=seeds.max(1) {
        for (plan_name, plan) in soak_fault_plans(seed) {
            for ratio in [1usize, 2, 3, 4] {
                for policy in [EvictPolicy::Lru, EvictPolicy::AccessCounter] {
                    cells.push((plan_name, plan.clone(), ratio, policy, seed));
                }
            }
        }
    }
    let total = cells.len();

    let runs: Vec<(u64, RunMetrics)> =
        parallel_map(cells, |(plan_name, plan, ratio, policy, seed)| {
            // ratio x oversubscription: the aggregate device memory holds
            // 1/ratio of the footprint, split evenly across the GPUs.
            let capacity = footprint.div_ceil(GPUS as usize * ratio);
            let cfg = SystemConfig::builder()
                .gpus(GPUS)
                .cus_per_gpu(4)
                .host_walkers(1)
                .seed(seed)
                .transfw(Some(soak_tables()))
                .placement(Some(uvm::PolicyKind::PrefetchNeighborhood { radius: 3 }))
                .overload(OverloadConfig::enabled())
                .oversub(soak_oversub(capacity, policy))
                .faults(plan)
                .build();
            let spec = RunSpec::new(cfg, WorkloadSpec::OversubShift { scale })
                .labeled(format!("{plan_name}/{ratio}x/{} seed {seed}", policy.name()));
            let m = spec.run_or_panic("oversub soak");
            assert_eq!(
                m.resilience.requests_retired, m.translation_requests,
                "{}: must retire every request exactly once with eviction on",
                spec.label
            );
            assert_eq!(
                m.overload.demand_rejected, 0,
                "{}: demand must never be rejected under memory pressure",
                spec.label
            );
            // The histogram reports power-of-two bucket bounds, so a smoke
            // run shorter than one bucket (64Ki cycles) can legitimately
            // report a bound past its own length; above that the bound must
            // stay under the run length or the GPUs spent the run faulting.
            let p99 = m.overload.demand_lat.percentile_bound(0.99);
            assert!(
                p99 < m.total_cycles.max(65_536),
                "{}: demand p99 bound {p99} exceeds run length {} (thrash collapse)",
                spec.label,
                m.total_cycles
            );
            let os = &m.oversub;
            if ratio >= 4 {
                assert!(
                    os.evictions > 0,
                    "{}: 4x oversubscription must force evictions: {os:?}",
                    spec.label
                );
            }
            eprintln!(
                "[oversub-soak] {plan_name:>5}/{ratio}x/{:>14} seed {seed}: {} cycles, \
                 evict={} refault={} trips={} pinned_skips={} fallbacks={} shed={} p99<={p99}",
                policy.name(),
                m.total_cycles,
                os.evictions,
                os.refaults,
                os.thrash_trips,
                os.pinned_skips,
                os.direct_fallbacks,
                os.background_shed,
            );
            (seed, m)
        });

    let json = runs_json(&runs);
    std::fs::write("BENCH_OVERSUB.json", &json).expect("write BENCH_OVERSUB.json");
    eprintln!(
        "[oversub-soak] {total} cells clean in {:.1?} (scale {scale}, {seeds} seed(s)) \
         -> BENCH_OVERSUB.json",
        t0.elapsed(),
    );
}
