//! End-to-end fault-tolerance properties: zero-impact plans are exact
//! no-ops, injected delays never corrupt results, starvation returns a
//! diagnosable `Deadlock` error, and the invariant auditor stays quiet on
//! healthy runs. This suite doubles as the CI fault-injection stress job
//! (release mode with `SPADE_AUDIT=1`).

use spade_core::{
    run_sddmm_checked, run_spmm_checked, ExecutionPlan, SpadeError, SpadeSystem, StallKind,
    SystemConfig, WatchdogConfig,
};
use spade_matrix::{Coo, DenseMatrix, TilingConfig};
use spade_sim::FaultConfig;

fn matrix() -> Coo {
    let mut t = Vec::new();
    for i in 0..96u32 {
        t.push((i, (i + 1) % 96, 1.0 + i as f32 * 0.01));
        t.push((i, (i * 5) % 96, 0.25));
        if i % 4 == 0 {
            t.push((i, i, 2.0));
        }
    }
    Coo::from_triplets(96, 96, &t).unwrap()
}

fn dense(k: usize) -> DenseMatrix {
    DenseMatrix::from_fn(96, k, |r, c| ((r * 17 + c * 3) % 64) as f32 * 0.0625)
}

fn system_with_faults(faults: FaultConfig) -> SpadeSystem {
    let mut cfg = SystemConfig::scaled(4);
    cfg.mem.faults = faults;
    SpadeSystem::new(cfg)
}

#[test]
fn zero_impact_plan_is_bit_identical_to_fault_free() {
    let a = matrix();
    let b = dense(32);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();

    let clean = SpadeSystem::new(SystemConfig::scaled(4))
        .run_spmm(&a, &b, &plan)
        .unwrap();
    // A plan with a seed but all-zero probabilities must be an exact no-op.
    let armed = system_with_faults(FaultConfig {
        seed: 0xDEAD_BEEF,
        ..FaultConfig::none()
    })
    .run_spmm(&a, &b, &plan)
    .unwrap();

    assert_eq!(clean.report, armed.report);
    assert_eq!(clean.output, armed.output);
    assert_eq!(armed.report.mem.faults_injected, 0);
}

#[test]
fn injected_delays_still_validate_against_gold_spmm() {
    let a = matrix();
    let b = dense(32);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();

    let clean = SpadeSystem::new(SystemConfig::scaled(4))
        .run_spmm(&a, &b, &plan)
        .unwrap();
    let mut sys = system_with_faults(FaultConfig::stress(3));
    let faulty = run_spmm_checked(&mut sys, &a, &b, &plan);

    assert!(
        faulty.report.mem.faults_injected > 0,
        "stress plan never fired"
    );
    assert!(
        faulty.report.cycles >= clean.report.cycles,
        "faults may only slow a run down: {} < {}",
        faulty.report.cycles,
        clean.report.cycles
    );
}

#[test]
fn injected_delays_still_validate_against_gold_sddmm() {
    let a = matrix();
    let b = dense(32);
    let c_t = dense(32);
    let plan = ExecutionPlan::sddmm_base(&a).unwrap();
    let mut sys = system_with_faults(FaultConfig::stress(11));
    let run = run_sddmm_checked(&mut sys, &a, &b, &c_t, &plan);
    assert!(run.report.mem.faults_injected > 0);
}

#[test]
fn faulty_runs_are_deterministic() {
    let a = matrix();
    let b = dense(32);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();
    let faults = FaultConfig::stress(42);
    let r1 = system_with_faults(faults).run_spmm(&a, &b, &plan).unwrap();
    let r2 = system_with_faults(faults).run_spmm(&a, &b, &plan).unwrap();
    assert_eq!(r1.report, r2.report);
    assert_eq!(r1.output, r2.output);
}

#[test]
fn stlb_evictions_increase_page_walks() {
    let a = matrix();
    let b = dense(32);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();
    let clean = SpadeSystem::new(SystemConfig::scaled(4))
        .run_spmm(&a, &b, &plan)
        .unwrap();
    let faults = FaultConfig {
        seed: 5,
        stlb_evict_prob: 0.05,
        ..FaultConfig::none()
    };
    let faulty = system_with_faults(faults).run_spmm(&a, &b, &plan).unwrap();
    assert!(
        faulty.report.tlb_misses > clean.report.tlb_misses,
        "evictions should force extra walks: {} vs {}",
        faulty.report.tlb_misses,
        clean.report.tlb_misses
    );
}

#[test]
fn forced_starvation_returns_deadlock_with_diagnostics() {
    let a = matrix();
    let b = dense(32);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();
    // A write-back threshold above 1.0 means dirty registers are never
    // drained, and dirty registers are not eviction candidates; once every
    // register of the tiny VRF holds a dirty output line the vOp generator
    // stalls forever with an empty wake schedule.
    let mut cfg = SystemConfig::scaled(4);
    cfg.pipeline.vrf_regs = 2;
    cfg.pipeline.wb_hi = 2.0;
    cfg.pipeline.wb_lo = 2.0;
    let mut sys = SpadeSystem::new(cfg.clone());
    // Keep the test fast: starve out after a small idle budget.
    sys.set_watchdog(WatchdogConfig {
        idle_budget: 10_000,
        max_cycles: None,
    });
    let err = sys.run_spmm(&a, &b, &plan).unwrap_err();
    let SpadeError::Deadlock { diagnostics } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(diagnostics.kind, StallKind::IdleLivelock);
    assert!(diagnostics.cycle > 0);
    assert_eq!(diagnostics.idle_iters, 10_000);
    assert_eq!(diagnostics.pes.len(), cfg.num_pes);
    // The stalled PEs must show the allocation stall that caused the hang.
    assert!(diagnostics.pes.iter().any(|p| p.stats.stall_no_vr > 0));
    // The rendered report names the stall and every PE.
    let text = diagnostics.to_string();
    assert!(text.contains("idle livelock"));
    assert!(text.contains("PE   0"));
}

#[test]
fn barrier_blocked_starvation_trips_the_idle_budget_with_diagnostics() {
    // The same starvation recipe as above, but on a 4-cluster machine with
    // scheduling barriers: row panels of 8 give every PE tiles, column
    // panels of 24 put a barrier after each quarter of the columns. Once
    // the starved PEs wedge, the remaining PEs sit blocked at a barrier no
    // arrival will ever release, so no PE has a finite wake. The watchdog must still fire (no hang) after exactly
    // the idle budget, and the event-driven loop's closed-form replay of
    // that idle spin must match the naive loop's diagnostics exactly.
    let a = matrix();
    let b = dense(32);
    let mut plan = ExecutionPlan::spmm_base(&a).unwrap();
    plan.tiling = TilingConfig::new(8, 24).unwrap();
    plan.barriers = spade_core::BarrierPolicy::per_column_panel();
    let mut cfg = SystemConfig::scaled(16);
    cfg.pipeline.vrf_regs = 2;
    cfg.pipeline.wb_hi = 2.0;
    cfg.pipeline.wb_lo = 2.0;
    let watchdog = WatchdogConfig {
        idle_budget: 10_000,
        max_cycles: None,
    };
    let diag_with = |fast_forward: bool| {
        let mut sys = SpadeSystem::new(cfg.clone());
        sys.set_watchdog(watchdog).set_fast_forward(fast_forward);
        let err = sys.run_spmm(&a, &b, &plan).unwrap_err();
        let SpadeError::Deadlock { diagnostics } = err else {
            panic!("expected Deadlock (fast_forward={fast_forward}), got {err:?}");
        };
        diagnostics
    };
    let event = diag_with(true);
    assert_eq!(event.kind, StallKind::IdleLivelock);
    assert_eq!(event.idle_iters, watchdog.idle_budget);
    assert_eq!(
        *event,
        *diag_with(false),
        "stall diagnostics diverged between the event-driven and naive loops"
    );
    assert!(event.barrier_arrived > 0, "no PE reached the barrier");
    assert_eq!(event.barrier_released, 0);
    // The snapshot names the barrier-blocked PEs so the hang is debuggable.
    assert_eq!(event.pes.len(), 16);
}

#[test]
fn cycle_budget_returns_deadlock_instead_of_running_forever() {
    let a = matrix();
    let b = dense(32);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();
    let mut sys = SpadeSystem::new(SystemConfig::scaled(4));
    sys.set_watchdog(WatchdogConfig {
        idle_budget: 1_000_000,
        max_cycles: Some(10),
    });
    let err = sys.run_spmm(&a, &b, &plan).unwrap_err();
    let SpadeError::Deadlock { diagnostics } = err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(diagnostics.kind, StallKind::CycleBudgetExceeded);
}

#[test]
fn auditor_stays_quiet_under_fault_stress() {
    // Runs with the auditor active (always in debug; via SPADE_AUDIT=1 in
    // the release-mode CI stress job) across primitives and fault plans.
    let a = matrix();
    let b = dense(32);
    let c_t = dense(32);
    for seed in [1, 2, 3] {
        let mut sys = system_with_faults(FaultConfig::stress(seed));
        run_spmm_checked(&mut sys, &a, &b, &ExecutionPlan::spmm_base(&a).unwrap());
        let mut sys = system_with_faults(FaultConfig::light(seed));
        run_sddmm_checked(
            &mut sys,
            &a,
            &b,
            &c_t,
            &ExecutionPlan::sddmm_base(&a).unwrap(),
        );
    }
}

#[test]
fn invalid_mem_config_is_reported_not_panicked() {
    let a = matrix();
    let b = dense(32);
    let plan = ExecutionPlan::spmm_base(&a).unwrap();

    // Fewer memory agents than PEs used to hit an assert inside the
    // hierarchy; now it is a typed error.
    let mut cfg = SystemConfig::scaled(4);
    cfg.mem.num_agents = 2;
    let err = SpadeSystem::new(cfg).run_spmm(&a, &b, &plan).unwrap_err();
    assert!(matches!(err, SpadeError::InvalidConfig { .. }));

    let mut cfg = SystemConfig::scaled(4);
    cfg.mem.agents_per_cluster = 0;
    let err = SpadeSystem::new(cfg).run_spmm(&a, &b, &plan).unwrap_err();
    assert!(matches!(err, SpadeError::InvalidConfig { .. }));

    let mut cfg = SystemConfig::scaled(4);
    cfg.mem.faults.dram_delay_prob = 2.0;
    let err = SpadeSystem::new(cfg).run_spmm(&a, &b, &plan).unwrap_err();
    assert!(matches!(err, SpadeError::InvalidConfig { .. }));
}
