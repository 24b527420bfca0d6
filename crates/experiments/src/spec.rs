//! The shared run-specification builder: one path from a declarative spec
//! to a running [`System`].
//!
//! Historically every experiment bin hand-assembled its own
//! [`SystemConfig`] + workload pair; the four soak drivers had four private
//! copies of the same construction (plus duplicated PRT/FT soak sizing and
//! fault-plan matrices). A [`RunSpec`] is that construction, extracted: the
//! bins build `RunSpec`s and the `.scn` scenario compiler lowers scenario
//! cells into `RunSpec`s — both run through [`RunSpec::run`], which is the
//! *only* spec-to-`System` path.
//!
//! # Examples
//!
//! ```
//! use experiments::spec::RunSpec;
//! use mgpu::SystemConfig;
//! use workloads::WorkloadSpec;
//!
//! let spec = RunSpec::new(
//!     SystemConfig::with_transfw(),
//!     WorkloadSpec::app("FIR", 0.05).unwrap(),
//! )
//! .with_seed(7);
//! let m = spec.run().expect("clean run");
//! assert!(m.total_cycles > 0);
//! ```

use mgpu::{RunMetrics, System, SystemConfig, TransFwKnobs};
use sim_core::{FaultPlan, SimError};
use workloads::WorkloadSpec;

/// One fully resolved simulation run: the complete system configuration
/// (seed included) plus the workload to execute on it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Complete system configuration, including the seed, fault plan,
    /// placement policy and every subsystem knob.
    pub cfg: SystemConfig,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Cell label for reports (defaults to the workload label).
    pub label: String,
}

impl RunSpec {
    /// Builds a spec from a configuration and workload.
    pub fn new(cfg: SystemConfig, workload: WorkloadSpec) -> Self {
        let label = workload.label();
        Self {
            cfg,
            workload,
            label,
        }
    }

    /// The same spec with a different cell label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The same spec with the simulation seed replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// The same spec with the workload's work-scale factor replaced (the
    /// CLI override every soak bin exposes).
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.workload = self.workload.with_scale(scale);
        self
    }

    /// The placement policy the run will use (for report labels).
    pub fn placement_kind(&self) -> uvm::PolicyKind {
        self.cfg.placement_kind()
    }

    /// Executes the run. This is the single spec-to-`System` path: every
    /// bin, scenario cell and server job funnels through here.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error when the run fails a liveness or
    /// invariant check.
    pub fn run(&self) -> Result<RunMetrics, SimError> {
        System::new(self.cfg.clone()).run(self.workload.build().as_ref())
    }

    /// Executes the run, panicking with `context` on failure (the soak-bin
    /// idiom: any cell failure should abort the whole sweep loudly).
    ///
    /// # Panics
    ///
    /// Panics when the run fails a liveness or invariant check.
    pub fn run_or_panic(&self, context: &str) -> RunMetrics {
        self.run()
            .unwrap_or_else(|e| panic!("{context}: {} failed: {e}", self.label))
    }
}

/// Expands a compiled `.scn` scenario into the full run matrix: every
/// sweep cell ([`scn::Scenario::cells`], placement → workload → fault
/// order) at every seed, seeds innermost — the same nesting the hard-coded
/// experiment bins used, so a converted bin visits cells in its historical
/// order. Each [`RunSpec`] carries the cell's complete configuration with
/// the seed applied; running it through [`RunSpec::run`] keeps the
/// scenario path and the hard-coded path bit-identical (the golden
/// equivalence test pins this).
pub fn scenario_specs(sc: &scn::Scenario) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for cell in sc.cells() {
        for &seed in &sc.seeds {
            specs.push(
                RunSpec::new(cell.cfg.clone(), cell.workload.clone())
                    .labeled(cell.label.clone())
                    .with_seed(seed),
            );
        }
    }
    specs
}

/// Loads and compiles one named scenario from the repository's committed
/// `scenarios/` directory (`<name>.scn`, located via
/// [`scn::find_scenarios_dir`]).
///
/// # Errors
///
/// Returns a message naming the file on I/O or compile errors.
pub fn load_scenario(name: &str) -> Result<scn::Scenario, String> {
    let dir = scn::find_scenarios_dir()
        .ok_or_else(|| "no scenarios/ directory found above the working directory".to_string())?;
    let path = dir.join(format!("{name}.scn"));
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    scn::compile_one(&src).map_err(|e| format!("{}:{e}", path.display()))
}

/// PRT/FT sized up for soak-scale migration churn: the paper-sized
/// 500-entry tables accumulate enough fingerprint-collision deletes at
/// soak scale to trip the post-run PRT audit, independent of the subsystem
/// under test. Shared by the overload and oversubscription soaks and the
/// committed soak scenarios.
pub fn soak_tables() -> TransFwKnobs {
    let mut k = TransFwKnobs::full();
    k.config.prt_fingerprints = 2_000;
    k.config.prt_fp_bits = 16;
    k.config.ft_fingerprints = 4_000;
    k.config.ft_fp_bits = 14;
    k
}

/// The soak drivers' shared fault-plan matrix: clean, 2% message loss, and
/// 2% drop/delay/duplicate chaos, with injector seeds derived from the run
/// seed so different seeds exercise different fault interleavings.
pub fn soak_fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean", FaultPlan::none()),
        ("loss", FaultPlan::message_loss(seed.wrapping_mul(31) + 7, 0.02)),
        (
            "chaos",
            FaultPlan::message_chaos(seed.wrapping_mul(37) + 11, 0.02, 200),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_one;

    #[test]
    fn run_spec_is_the_same_path_as_run_one() {
        let cfg = SystemConfig::with_transfw();
        let spec = RunSpec::new(cfg.clone(), WorkloadSpec::app("FIR", 0.05).unwrap())
            .with_seed(3);
        let direct = run_one(cfg, &*spec.workload.build(), 3);
        let via_spec = spec.run().expect("clean run");
        assert_eq!(direct, via_spec, "two paths to System must not exist");
    }

    #[test]
    fn with_seed_and_scale_round_trip() {
        let spec = RunSpec::new(
            SystemConfig::baseline(),
            WorkloadSpec::Burst { scale: 1.0, load: 2 },
        )
        .with_seed(9)
        .with_scale(0.05);
        assert_eq!(spec.cfg.seed, 9);
        assert_eq!(spec.workload.scale(), 0.05);
        assert_eq!(spec.label, "burst@2x");
    }

    #[test]
    fn soak_tables_upsizes_both_filters() {
        let k = soak_tables();
        assert!(k.config.prt_fingerprints > TransFwKnobs::full().config.prt_fingerprints);
        assert!(k.config.ft_fingerprints > TransFwKnobs::full().config.ft_fingerprints);
        assert!(k.gmmu_short_circuit && k.host_forwarding);
    }

    #[test]
    fn soak_fault_plans_are_seed_dependent() {
        let a = soak_fault_plans(1);
        let b = soak_fault_plans(2);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].1, FaultPlan::none());
        assert_ne!(a[1].1.seed, b[1].1.seed);
        assert_eq!(a[1].1.message_drop_prob, 0.02);
    }
}
