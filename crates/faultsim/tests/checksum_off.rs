//! The bit-flip campaign with the integrity checksum switched off at
//! runtime: only the fallback detectors (noise budgets, decode checks)
//! remain, so escapes are measured here, not gated.
//!
//! `set_checksum_enabled` is process-global, so this lives in its own
//! integration-test binary: the checksum-on gate in the library tests
//! never shares a process with it.

use faultsim::{run_campaign_classes, FaultClass, DEFAULT_SEED};

#[test]
fn bitflips_are_all_accounted_for_with_checksums_off() {
    const CASES: u64 = 40;
    fhe_math::set_checksum_enabled(false);
    let tel = telemetry::Telemetry::disabled();
    let report = run_campaign_classes(&[FaultClass::BitFlip], DEFAULT_SEED, CASES, &tel);
    assert!(!report.checksum_enabled, "the report must record the switch");
    assert!(report.to_json().contains("\"checksum_enabled\":false"), "{}", report.to_json());

    let s = report.class(FaultClass::BitFlip).unwrap();
    assert_eq!(s.injected, CASES);
    assert_eq!(s.detectors.get("checksum").copied().unwrap_or(0), 0, "{s:?}");
    assert_eq!(
        s.detected + s.escaped + s.benign,
        s.injected,
        "every case is detected, escaped or benign: {s:?}"
    );
}
