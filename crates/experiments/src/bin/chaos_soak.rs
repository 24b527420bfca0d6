//! Chaos-soak driver: a seeded, time-boxed matrix of component failures
//! (GPU offline, link partitions, host-MMU failover, all of them at once on
//! top of message loss) over a sample of the Table III applications.
//!
//! Every run executes under the invariant auditor inside `System::run`, and
//! this driver additionally enforces retire-exactly-once and completion for
//! each cell. The per-run robustness counters are written to
//! `BENCH_CHAOS_SOAK.json` (see `experiments::run_json`). The same matrix
//! is written declaratively in `scenarios/chaos_soak.scn`, which `scn_check`
//! compiles and the `scn` fuzz and round-trip tests use as corpus.
//!
//! ```sh
//! cargo run --release -p experiments --bin chaos_soak [SCALE] [SEEDS] [--sanitize]
//! ```
//!
//! `--sanitize` additionally runs every cell under the shadow sanitizer
//! (`SystemConfig::sanitize`): the model checker's safety invariants are
//! probed at every ownership commit and retire, and any finding fails the
//! run. The sanitizer is read-only, so metrics are bit-identical either
//! way.

use experiments::runner::{parallel_map, runs_json};
use experiments::RunSpec;
use mgpu::{ComponentEvent, FaultPlan, RunMetrics, SystemConfig};
use workloads::WorkloadSpec;

fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    let offline = |gpu, at_cycle, duration| ComponentEvent::GpuOffline {
        gpu,
        at_cycle,
        duration,
    };
    let partition = |a, b, at_cycle, duration| ComponentEvent::LinkPartition {
        a,
        b,
        at_cycle,
        duration,
    };
    vec![
        (
            "gpu-offline",
            FaultPlan::components(vec![offline(1, 2_000, 5_000)]),
        ),
        (
            "double-offline",
            FaultPlan::components(vec![offline(0, 1_000, 3_000), offline(3, 4_000, 3_000)]),
        ),
        (
            "link-partition",
            FaultPlan::components(vec![
                partition(0, 1, 500, 10_000),
                partition(2, 3, 2_000, 10_000),
            ]),
        ),
        (
            "host-failover",
            FaultPlan::components(vec![ComponentEvent::HostMmuFailover {
                at_cycle: 1_500,
                stall: 4_000,
            }]),
        ),
        ("everything", {
            let mut plan = FaultPlan::message_loss(23, 0.01);
            plan.component_events = vec![
                offline(2, 2_000, 4_000),
                partition(0, 3, 1_000, 8_000),
                ComponentEvent::HostMmuFailover {
                    at_cycle: 5_000,
                    stall: 2_000,
                },
            ];
            plan
        }),
    ]
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let sanitize = args.iter().any(|a| a == "--sanitize");
    args.retain(|a| a != "--sanitize");
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.1);
    let seeds: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    // simlint::allow(det-wallclock): harness progress timing, never fed into the sim
    let t0 = std::time::Instant::now();

    let mut cells = Vec::new();
    for (scenario, plan) in scenarios() {
        for app_name in ["KM", "MT", "PR", "SC"] {
            for seed in 1..=seeds.max(1) {
                cells.push((scenario, plan.clone(), app_name, seed));
            }
        }
    }
    let total = cells.len();

    let runs: Vec<(u64, RunMetrics)> = parallel_map(cells, |(scenario, plan, app_name, seed)| {
        let workload = WorkloadSpec::app(app_name, scale)
            .unwrap_or_else(|| panic!("unknown app {app_name}"));
        let expected_insns = {
            let app = workloads::app(app_name).expect("known app").scaled(scale);
            (app.ctas * app.accesses_per_cta) as u64
        };
        let mut cfg = SystemConfig::with_transfw();
        cfg.faults = plan;
        cfg.checkpoint_interval = Some(2_000);
        cfg.sanitize = sanitize;
        let spec = RunSpec::new(cfg, workload)
            .labeled(format!("{scenario}/{app_name} seed {seed}"))
            .with_seed(seed);
        let m = spec.run_or_panic("chaos soak");
        assert_eq!(
            m.resilience.requests_retired, m.translation_requests,
            "{}: must retire every request exactly once",
            spec.label
        );
        assert_eq!(
            m.mem_instructions, expected_insns,
            "{}: lost instructions",
            spec.label
        );
        eprintln!(
            "[chaos-soak] {scenario:>14}/{app_name:<3} seed {seed}: {} cycles, \
             offline={} reroutes={} migrations={} checkpoints={}",
            m.total_cycles,
            m.recovery.gpu_offline_events,
            m.recovery.rerouted_messages,
            m.recovery.ownership_migrations,
            m.recovery.checkpoints_taken,
        );
        (seed, m)
    });

    let json = runs_json(&runs);
    std::fs::write("BENCH_CHAOS_SOAK.json", &json).expect("write BENCH_CHAOS_SOAK.json");
    eprintln!(
        "[chaos-soak] {total} cells clean in {:.1?} (scale {scale}, {seeds} seed(s){}) -> BENCH_CHAOS_SOAK.json",
        t0.elapsed(),
        if sanitize { ", sanitized" } else { "" },
    );
}
