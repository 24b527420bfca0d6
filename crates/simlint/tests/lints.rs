//! Fixture-driven integration tests: one positive (violating) and one
//! negative (clean) snippet per lint class, plus the self-test that the
//! real workspace matches the checked-in baseline.

use simlint::{lint_file, lint_metrics, Baseline, Config, FileCtx, Lint};

/// Lints a fixture as if it lived at `as_path` in the workspace.
fn lint_fixture(src: &str, as_path: &str) -> Vec<simlint::Violation> {
    lint_file(&FileCtx::new(as_path), src, &Config::trans_fw())
}

fn lints_of(vs: &[simlint::Violation]) -> Vec<Lint> {
    vs.iter().map(|v| v.lint).collect()
}

#[test]
fn det_collections_fixture_pair() {
    let pos = lint_fixture(
        include_str!("fixtures/det_collections_pos.rs"),
        "crates/tlb/src/state.rs",
    );
    assert!(
        pos.iter().all(|v| v.lint == Lint::DetCollections) && pos.len() >= 2,
        "expected HashMap+HashSet findings, got {pos:?}"
    );
    let neg = lint_fixture(
        include_str!("fixtures/det_collections_neg.rs"),
        "crates/tlb/src/state.rs",
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

#[test]
fn det_wallclock_fixture_pair() {
    let pos = lint_fixture(
        include_str!("fixtures/det_wallclock_pos.rs"),
        "crates/experiments/src/runner.rs",
    );
    let keys: Vec<&str> = pos.iter().map(|v| v.key.as_str()).collect();
    assert!(pos.iter().all(|v| v.lint == Lint::DetWallclock));
    for expect in ["Instant", "SystemTime", "rand::random", "thread_rng"] {
        assert!(keys.contains(&expect), "missing {expect} in {keys:?}");
    }
    let neg = lint_fixture(
        include_str!("fixtures/det_wallclock_neg.rs"),
        "crates/experiments/src/runner.rs",
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

#[test]
fn det_wallclock_backoff_fixture_pair() {
    // The overload subsystem's retry backoff is the classic place ambient
    // jitter sneaks in: a backoff helper seeded from Instant/thread_rng
    // must be flagged, the SimRng-jittered equivalent must be clean.
    let pos = lint_fixture(
        include_str!("fixtures/det_wallclock_backoff_pos.rs"),
        "crates/mgpu/src/overload.rs",
    );
    let keys: Vec<&str> = pos.iter().map(|v| v.key.as_str()).collect();
    assert!(pos.iter().all(|v| v.lint == Lint::DetWallclock), "{pos:?}");
    for expect in ["Instant", "SystemTime", "rand::random", "thread_rng"] {
        assert!(keys.contains(&expect), "missing {expect} in {keys:?}");
    }
    let neg = lint_fixture(
        include_str!("fixtures/det_wallclock_backoff_neg.rs"),
        "crates/mgpu/src/overload.rs",
    );
    assert!(neg.is_empty(), "deterministic backoff flagged: {neg:?}");
}

#[test]
fn panic_freedom_fixture_pair() {
    let pos = lint_fixture(
        include_str!("fixtures/panic_freedom_pos.rs"),
        "crates/mgpu/src/system.rs",
    );
    let mut keys: Vec<&str> = pos.iter().map(|v| v.key.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["expect", "index", "unwrap"], "{pos:?}");
    // The same snippet outside a hot-path file is not linted.
    let elsewhere = lint_fixture(
        include_str!("fixtures/panic_freedom_pos.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert!(elsewhere.is_empty());
    let neg = lint_fixture(
        include_str!("fixtures/panic_freedom_neg.rs"),
        "crates/mgpu/src/system.rs",
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

#[test]
fn protocol_exhaustive_fixture_pair() {
    let pos = lint_fixture(
        include_str!("fixtures/protocol_exhaustive_pos.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert_eq!(lints_of(&pos), [Lint::ProtocolExhaustive], "{pos:?}");
    assert_eq!(pos[0].key, "wildcard-arm(Event)");
    let neg = lint_fixture(
        include_str!("fixtures/protocol_exhaustive_neg.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

#[test]
fn protocol_transition_fixture_pair() {
    let pos = lint_fixture(
        include_str!("fixtures/protocol_transition_pos.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert_eq!(lints_of(&pos), [Lint::ProtocolTransition], "{pos:?}");
    assert_eq!(pos[0].key, "match(ProtocolEvent)");
    // The identical handler *inside* the shared transition module is the
    // one place it belongs.
    let home = lint_fixture(
        include_str!("fixtures/protocol_transition_pos.rs"),
        "crates/mgpu/src/protocol/mod.rs",
    );
    assert!(home.is_empty(), "transition home flagged: {home:?}");
    let neg = lint_fixture(
        include_str!("fixtures/protocol_transition_neg.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

#[test]
fn metrics_complete_fixture_pair() {
    let cfg = Config::trans_fw();
    let metrics = include_str!("fixtures/metrics_complete_pos.rs");
    let pos = lint_metrics(
        metrics,
        include_str!("fixtures/metrics_complete_pos_ser.rs"),
        &cfg,
    );
    assert_eq!(lints_of(&pos), [Lint::MetricsComplete], "{pos:?}");
    assert_eq!(pos[0].key, "missing-field(l1_hits)");
    let neg = lint_metrics(
        metrics,
        include_str!("fixtures/metrics_complete_neg_ser.rs"),
        &cfg,
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

/// Runs the full pipeline (token lints + flow-aware passes) over fixture
/// files mounted at the given workspace paths.
fn run_fixture_sources(files: &[(&str, &str)]) -> simlint::Report {
    let sources: Vec<(FileCtx, String)> = files
        .iter()
        .map(|(path, src)| (FileCtx::new(path), (*src).to_string()))
        .collect();
    simlint::run_sources(&sources, &Config::trans_fw())
}

#[test]
fn lexer_tricky_fixture_pair() {
    // Raw strings, nested block comments, byte/C strings and escapes must
    // neither hide real violations nor manufacture false ones.
    let neg = lint_fixture(
        include_str!("fixtures/lexer_tricky_neg.rs"),
        "crates/tlb/src/state.rs",
    );
    assert!(neg.is_empty(), "literal-only fixture flagged: {neg:?}");
    let pos = lint_fixture(
        include_str!("fixtures/lexer_tricky_pos.rs"),
        "crates/tlb/src/state.rs",
    );
    assert!(
        !pos.is_empty() && pos.iter().all(|v| v.lint == Lint::DetCollections),
        "expected the post-decoy HashMap findings, got {pos:?}"
    );
}

#[test]
fn digest_complete_fixture_pair() {
    let pos = run_fixture_sources(&[(
        "crates/tlb/src/state.rs",
        include_str!("fixtures/digest_complete_pos.rs"),
    )]);
    assert_eq!(lints_of(&pos.violations), [Lint::DigestComplete], "{pos:?}");
    assert_eq!(pos.violations[0].key, "undigested(WalkCache.pressure)");
    let neg = run_fixture_sources(&[(
        "crates/tlb/src/state.rs",
        include_str!("fixtures/digest_complete_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
    // The derived field is waived, not silently ignored.
    assert_eq!(lints_of(&neg.waived), [Lint::DigestComplete], "{:?}", neg.waived);
    assert_eq!(neg.waived[0].key, "undigested(WalkCache.hit_rate_cache)");
}

#[test]
fn rng_stream_fixture_pair() {
    let pos = run_fixture_sources(&[(
        "crates/uvm/src/stream.rs",
        include_str!("fixtures/rng_stream_pos.rs"),
    )]);
    let mut keys: Vec<&str> = pos.violations.iter().map(|v| v.key.as_str()).collect();
    keys.sort_unstable();
    assert!(pos.violations.iter().all(|v| v.lint == Lint::RngStream), "{pos:?}");
    assert_eq!(
        keys,
        [
            "rng-across-boundary",
            "shared-stream-seed",
            "shared-stream-seed",
            "unsalted-stream"
        ],
        "{:?}",
        pos.violations
    );
    let neg = run_fixture_sources(&[(
        "crates/uvm/src/stream.rs",
        include_str!("fixtures/rng_stream_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

#[test]
fn counter_saturation_fixture_pair() {
    let pos = run_fixture_sources(&[(
        "crates/ptw/src/stats.rs",
        include_str!("fixtures/counter_saturation_pos.rs"),
    )]);
    assert_eq!(
        lints_of(&pos.violations),
        [Lint::CounterSaturation, Lint::CounterSaturation],
        "{pos:?}"
    );
    assert!(pos.violations.iter().all(|v| v.key == "raw-add(issued)"), "{pos:?}");
    let neg = run_fixture_sources(&[(
        "crates/ptw/src/stats.rs",
        include_str!("fixtures/counter_saturation_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

#[test]
fn panic_reach_fixture_pair() {
    // The hazard sits one crate over from the hot path that reaches it.
    let hot = include_str!("fixtures/panic_reach_hot.rs");
    let pos = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/helper.rs",
            include_str!("fixtures/panic_reach_helper_pos.rs"),
        ),
    ]);
    assert_eq!(lints_of(&pos.violations), [Lint::PanicReach], "{pos:?}");
    assert_eq!(pos.violations[0].file, "crates/ptw/src/helper.rs");
    assert_eq!(pos.violations[0].key, "reach(helper_lookup.unwrap)");
    let neg = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/helper.rs",
            include_str!("fixtures/panic_reach_helper_neg.rs"),
        ),
    ]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

#[test]
fn panic_reach_through_dyn_dispatch_fixture_pair() {
    // Dyn dispatch erases the receiver type; the name-resolved call graph
    // must still carry `tick -> decide` into the impl (pos) without
    // dragging in trait methods the hot path never names (neg).
    let hot = include_str!("fixtures/callgraph_dyn_hot.rs");
    let pos = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/policy_impl.rs",
            include_str!("fixtures/callgraph_dyn_pos.rs"),
        ),
    ]);
    assert_eq!(lints_of(&pos.violations), [Lint::PanicReach], "{:?}", pos.violations);
    assert_eq!(pos.violations[0].key, "reach(decide.unwrap)");
    let neg = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/policy_impl.rs",
            include_str!("fixtures/callgraph_dyn_neg.rs"),
        ),
    ]);
    assert!(neg.violations.is_empty(), "uncalled `audit` flagged: {:?}", neg.violations);
}

#[test]
fn epoch_digest_coverage_fixture_pair() {
    // The top-level digest mentions every `System` field, so PR 9's
    // digest-complete is clean on both fixtures — only the transitive
    // audit can see the nested hole.
    let pos = run_fixture_sources(&[(
        "crates/mgpu/src/recovery.rs",
        include_str!("fixtures/epoch_digest_coverage_pos.rs"),
    )]);
    assert_eq!(
        lints_of(&pos.violations),
        [Lint::EpochDigestCoverage],
        "{:?}",
        pos.violations
    );
    assert_eq!(pos.violations[0].key, "uncovered(Inner.hidden)");
    let neg = run_fixture_sources(&[(
        "crates/mgpu/src/recovery.rs",
        include_str!("fixtures/epoch_digest_coverage_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

/// The real workspace must lint clean against the checked-in baseline —
/// the same check CI's static-analysis job runs, wired into `cargo test`
/// so a violation can never land without also failing the test suite.
#[test]
fn workspace_matches_checked_in_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/simlint has a workspace root two levels up")
        .to_path_buf();
    let cfg = Config::trans_fw();
    let report = simlint::run_workspace(&root, &cfg).expect("workspace lints");
    let baseline_text = std::fs::read_to_string(root.join("simlint.baseline.toml"))
        .expect("simlint.baseline.toml is checked in");
    let baseline = Baseline::parse(&baseline_text).expect("baseline parses");

    // The ratchet: no finding outside the baseline.
    let diff = baseline.diff(&report.violations);
    assert!(
        diff.new.is_empty(),
        "new simlint violations (fix them or justify in simlint.baseline.toml):\n{}",
        diff.new
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The ratchet only tightens: stale entries must be removed.
    assert!(
        diff.stale.is_empty(),
        "stale baseline entries — shrink simlint.baseline.toml: {:?}",
        diff.stale
    );
    // Policy: determinism-class lints are never grandfathered.
    let det_entries: Vec<_> = baseline
        .entries
        .iter()
        .filter(|e| {
            Lint::from_name(&e.lint).is_some_and(Lint::is_determinism_class)
        })
        .collect();
    assert!(
        det_entries.is_empty(),
        "determinism-class baseline entries are forbidden: {det_entries:?}"
    );
    // And every entry carries a real justification.
    for e in &baseline.entries {
        assert!(
            !e.justification.trim().is_empty() && !e.justification.contains("TODO"),
            "baseline entry without a real justification: {e:?}"
        );
    }
    // The flow-aware lint classes hold at zero unwaived findings on the
    // real tree: hazards are fixed or carry an inline waiver, never
    // grandfathered through the baseline.
    let flow_lints = [
        Lint::DigestComplete,
        Lint::RngStream,
        Lint::CounterSaturation,
        Lint::PanicReach,
        Lint::EpochDigestCoverage,
    ];
    let flow_violations: Vec<_> = report
        .violations
        .iter()
        .filter(|v| flow_lints.contains(&v.lint))
        .collect();
    assert!(
        flow_violations.is_empty(),
        "flow-aware findings must be fixed or waived inline: {flow_violations:?}"
    );
    assert!(
        !baseline
            .entries
            .iter()
            .any(|e| Lint::from_name(&e.lint).is_some_and(|l| flow_lints.contains(&l))),
        "flow-aware lints are never grandfathered in the baseline"
    );
}
