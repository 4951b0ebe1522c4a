//! Deterministic-replay tests of the scenario runtime: the same scenario +
//! seed must produce identical results whether it runs serially, through
//! the parallel runner, or twice in a row — and the Table-7 comparison rows
//! must be byte-identical across execution modes. The simulators' reports
//! are pinned to recorded digests, so a refactor that changes a trace the
//! same way on every run still fails.

mod common;

use tolerance::core::runtime::{Runner, Scenario, ScenarioRegistry};
use tolerance::core::simnet::{
    adversary_config, adversary_matrix, load_swing_config, run_schedule, run_sharded_schedule,
    sharded_chaos_4_config, sharded_fleet_controlled_config, sharded_multiput_config,
    FaultSchedule, ShardedFaultSchedule, ShardedScheduleConfig,
};
use tolerance::emulation::scenarios::{
    bursty_attacker_config, heterogeneous_nodes_config, register_config,
};
use tolerance::emulation::{builtin_registry, EmulationScenario, EvaluationGrid};

fn quick_grid() -> EvaluationGrid {
    EvaluationGrid {
        initial_nodes: vec![3, 6],
        delta_r: vec![Some(15), None],
        seeds: 3,
        horizon: 120,
        ..EvaluationGrid::default()
    }
}

#[test]
fn quick_grid_is_byte_identical_serial_vs_parallel() {
    let grid = quick_grid();
    let serial = grid.run_with(&Runner::serial()).unwrap();
    let parallel = grid.run_with(&Runner::parallel()).unwrap();
    let four_workers = grid.run_with(&Runner::with_threads(4)).unwrap();

    // Structural equality...
    assert_eq!(serial, parallel);
    assert_eq!(serial, four_workers);
    // ...and byte-identical serialized artifacts (what lands in
    // results/*.json must not depend on the execution mode).
    let serial_json = serde_json::to_string_pretty(&serial).unwrap();
    let parallel_json = serde_json::to_string_pretty(&parallel).unwrap();
    assert_eq!(serial_json, parallel_json);
}

#[test]
fn evaluation_grid_quick_runs_through_the_shared_runner() {
    // `quick()` is the configuration the experiment binary uses without
    // `--full`; the acceptance gate for the runtime refactor.
    let mut grid = EvaluationGrid::quick();
    grid.horizon = 100; // keep the replay fast; still 16 cells x 3 seeds
    let rows = grid.run_with(&Runner::with_threads(2)).unwrap();
    assert_eq!(rows.len(), grid.cells().len());
    let replay = grid.run_with(&Runner::with_threads(2)).unwrap();
    assert_eq!(
        rows, replay,
        "replaying the same grid must be deterministic"
    );
}

#[test]
fn scenario_runs_are_deterministic_in_the_seed() {
    let scenario = EmulationScenario::new(bursty_attacker_config());
    let first = scenario.run(42).unwrap();
    let second = scenario.run(42).unwrap();
    assert_eq!(first, second);
    let other_seed = scenario.run(43).unwrap();
    assert_ne!(
        first, other_seed,
        "different seeds must explore different trajectories"
    );
}

#[test]
fn registry_scenarios_replay_identically_across_execution_modes() {
    let registry = builtin_registry();
    let seeds: Vec<u64> = (0..4).collect();
    // Wall-clock scenarios (the live threaded control loop) are registered
    // as non-deterministic and carry no replay guarantee.
    for name in registry.deterministic_names() {
        let serial = registry.run(name, &Runner::serial(), &seeds).unwrap();
        let parallel = registry
            .run(name, &Runner::with_threads(3), &seeds)
            .unwrap();
        assert_eq!(serial.reports, parallel.reports, "{name}");
        assert_eq!(serial.summary, parallel.summary, "{name}");
    }
}

#[test]
fn non_paper_scenarios_are_registered_and_runnable() {
    let registry = builtin_registry();
    assert!(registry.contains("bursty-attacker"));
    assert!(registry.contains("heterogeneous-nodes"));

    let bursty = registry
        .run("bursty-attacker", &Runner::parallel(), &[0, 1])
        .unwrap();
    let heterogeneous = registry
        .run("heterogeneous-nodes", &Runner::parallel(), &[0, 1])
        .unwrap();
    let paper = registry
        .run("paper/tolerance", &Runner::parallel(), &[0, 1])
        .unwrap();

    // The novel workloads genuinely change the closed-loop dynamics.
    assert_ne!(bursty.reports, paper.reports);
    assert_ne!(heterogeneous.reports, paper.reports);
    for run in [&bursty, &heterogeneous, &paper] {
        for report in &run.reports {
            assert!((0.0..=1.0).contains(&report.availability));
            assert!(report.time_to_recovery >= 0.0);
        }
    }
}

#[test]
fn custom_configs_can_be_registered_alongside_builtins() {
    let mut registry = ScenarioRegistry::new();
    register_config(
        &mut registry,
        "custom/heterogeneous",
        heterogeneous_nodes_config(),
    );
    let run = registry
        .run("custom/heterogeneous", &Runner::serial(), &[7])
        .unwrap();
    assert_eq!(run.reports.len(), 1);
    assert!(run.label.starts_with("tolerance/"));
}

/// The recorded digests, one `name digest` line per simulator report.
const REPORT_DIGESTS: &str = "tests/fixtures/report-digests.txt";

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `name digest` for every pinned report: the simnet smoke configurations
/// and the adversary matrix on the single-group simulator, and the
/// registered fleet configurations on the fleet engine.
fn report_digests() -> Vec<String> {
    let digest = |json: String| format!("{:016x}", fnv1a(json.as_bytes()));
    let mut lines = Vec::new();
    let mut single = common::smoke_configs();
    let seeds = common::smoke_seeds();
    for (name, config) in single.drain(..) {
        for &seed in &seeds {
            let report = run_schedule(&FaultSchedule::generate(seed, &config), &config)
                .expect("harness constructs");
            let json = serde_json::to_string(&report).expect("serializable");
            lines.push(format!("single/{name}/{seed} {}", digest(json)));
        }
    }
    for (attacker, condition) in adversary_matrix() {
        let config = adversary_config(attacker, condition);
        for seed in 0..20u64 {
            let report = run_schedule(&FaultSchedule::generate(seed, &config), &config)
                .expect("harness constructs");
            let json = serde_json::to_string(&report).expect("serializable");
            let name = format!("{}-{}", attacker.name(), condition.name());
            lines.push(format!("single/{name}/{seed} {}", digest(json)));
        }
    }
    let fleets = [
        ("default", ShardedScheduleConfig::default()),
        ("chaos-4", sharded_chaos_4_config()),
        ("multiput", sharded_multiput_config()),
        ("fleet-controlled", sharded_fleet_controlled_config()),
        ("load-swing", load_swing_config()),
    ];
    for (name, config) in fleets {
        for seed in 0..4u64 {
            let schedule = ShardedFaultSchedule::generate(seed, &config);
            let report = run_sharded_schedule(&schedule, &config).expect("harness constructs");
            let json = serde_json::to_string(&report).expect("serializable");
            lines.push(format!("fleet/{name}/{seed} {}", digest(json)));
        }
    }
    lines
}

#[test]
fn simulator_reports_match_their_recorded_digests() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(REPORT_DIGESTS);
    let recorded = std::fs::read_to_string(&path).unwrap_or_default();
    let recorded: Vec<&str> = recorded
        .lines()
        .filter(|line| !line.starts_with('#'))
        .collect();
    let measured = report_digests();
    let changed: Vec<&String> = measured
        .iter()
        .filter(|line| !recorded.contains(&line.as_str()))
        .collect();
    if changed.is_empty() && recorded.len() == measured.len() {
        return;
    }
    // Leave the rebuilt table where the CI jobs collect artifacts; copying
    // it over the fixture re-pins it.
    let dir = std::path::Path::new("simnet-counterexamples");
    if std::fs::create_dir_all(dir).is_ok() {
        let header = "# FNV-1a digests of serialized simulator reports (trace, outcome, \
                      violation).\n# Re-pin only when a change alters simulated behaviour \
                      on purpose.\n";
        let _ = std::fs::write(
            dir.join("report-digests.txt"),
            format!("{header}{}\n", measured.join("\n")),
        );
    }
    panic!(
        "{} of {} simulator reports differ from {REPORT_DIGESTS} \
         (rebuilt: simnet-counterexamples/report-digests.txt): {:#?}",
        changed.len(),
        measured.len(),
        changed.iter().take(10).collect::<Vec<_>>()
    );
}
