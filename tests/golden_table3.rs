//! Wide pinned-metrics golden: the ten Table III apps on the baseline and
//! with Trans-FW, at scale 0.5 and seed 1, each cell pinned to its exact
//! `total_cycles`, `translation_requests`, `host_walks`,
//! `transfw.forwarded` and `transfw.remote_supplied`.
//!
//! This is the oracle a refactor must leave unchanged. Scale 0.5 is the
//! smallest scale at which every sharing-heavy app forwards often enough to
//! pin the FT path. A change that means to move simulated behaviour
//! regenerates the file and says why:
//!
//! ```sh
//! cargo test --release --test golden_table3 -- --ignored
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use experiments::runner::parallel_map;
use transfw_sim::prelude::*;

const SCALE: f64 = 0.5;
const SEED: u64 = 1;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden_table3.txt")
}

/// Runs all 20 cells and renders them one line each, in Table III order.
fn render() -> String {
    let rows = parallel_map(workloads::all_apps(), |spec| {
        let app = spec.scaled(SCALE);
        let mut lines = String::new();
        for (label, cfg) in [
            ("baseline", SystemConfig::baseline()),
            ("transfw", SystemConfig::with_transfw()),
        ] {
            let cfg = SystemConfig { seed: SEED, ..cfg };
            let m = System::new(cfg)
                .run(&app)
                .unwrap_or_else(|e| panic!("{} on {label}: {e}", app.name));
            writeln!(
                lines,
                "{:7} {:8} total_cycles={} translation_requests={} host_walks={} \
                 transfw.forwarded={} transfw.remote_supplied={}",
                app.name,
                label,
                m.total_cycles,
                m.translation_requests,
                m.host_walks,
                m.transfw.forwarded,
                m.transfw.remote_supplied,
            )
            .expect("write to String");
        }
        lines
    });
    let mut out = format!("# Table III golden: scale {SCALE}, seed {SEED}\n");
    out.extend(rows);
    out
}

#[test]
fn table3_metrics_match_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("read tests/golden_table3.txt");
    let actual = render();
    assert!(
        actual == golden,
        "Table III metrics drifted from tests/golden_table3.txt\n--- golden\n{golden}--- actual\n{actual}"
    );
}

#[test]
#[ignore = "rewrites tests/golden_table3.txt"]
fn regenerate_table3_golden() {
    std::fs::write(golden_path(), render()).expect("write tests/golden_table3.txt");
}
