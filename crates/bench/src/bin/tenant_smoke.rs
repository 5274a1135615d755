//! Multi-tenant smoke test: exercises the ASID-keyed translation stack
//! end to end and exits nonzero (for CI) on any violation.
//!
//! Checks, in order:
//!
//! 1. **Single-tenant transparency** — the default configuration's
//!    fingerprint still matches the golden pin (no cached single-tenant
//!    cell is invalidated), a tenant-free run emits no tenant stats
//!    keys, and arming a tenant layout re-keys the run cache.
//! 2. **Walk-conservation ledger** — on a two-tenant irregular+regular
//!    mix, under both sharing policies, every completed walk is charged
//!    to exactly one tenant: `Σ tenants[i].walks == walk.translations`,
//!    with both tenants actually progressing.
//! 3. **Fairness bounds** — Jain's index over the per-tenant IPCs lands
//!    in (0, 1] for both policies (1.0 exactly would mean perfectly
//!    equal rates; 0 would mean a starved tenant with the index
//!    degenerating).
//! 4. **Determinism** — the same mix simulated twice produces
//!    byte-identical stats JSON under both policies.
//!
//! Usage: `tenant_smoke` (no flags; deterministic).

use swgpu_bench::{Cell, Scale, SystemConfig};
use swgpu_sim::{GpuConfig, SharingPolicy, TenantsConfig};

/// The golden default-config fingerprint pinned in `swgpu-sim`'s config
/// tests. Duplicated here on purpose: the smoke test guards the *run
/// cache* (artifacts keyed by this string survive the multi-tenant
/// changes), not the hashing scheme itself.
const GOLDEN_DEFAULT_FINGERPRINT: &str = "e2d406ba07f931c1";

/// The quick-scale SoftWalker base configuration every check starts
/// from.
fn base_cfg() -> GpuConfig {
    SystemConfig::SoftWalker.build(Scale::Quick)
}

/// A two-tenant irregular+regular mix (gups + 2dc, Table 4) over the
/// given sharing policy, SMs split evenly.
fn mix_cell(policy: SharingPolicy) -> Cell {
    let mut cfg = base_cfg();
    let mut layout = TenantsConfig::pair("gups", "2dc", cfg.sms);
    layout.policy = policy;
    cfg.tenants = Some(layout);
    Cell::tenant_mix(cfg, 10)
}

/// Both sharing policies, labelled for the failure messages.
fn policies() -> [(&'static str, SharingPolicy); 2] {
    [
        ("partitioned", SharingPolicy::Partitioned),
        (
            "shared+QoS",
            SharingPolicy::Shared {
                max_inflight_walks: 8,
            },
        ),
    ]
}

/// Check 1: single-tenant configs are untouched by the multi-tenant
/// machinery, and tenant layouts re-key the cache.
fn check_single_tenant_transparency() -> Result<(), String> {
    let default_fp = GpuConfig::default().fingerprint();
    if default_fp != GOLDEN_DEFAULT_FINGERPRINT {
        return Err(format!(
            "default fingerprint drifted: {default_fp} != {GOLDEN_DEFAULT_FINGERPRINT} \
             (every cached single-tenant artifact just got invalidated)"
        ));
    }
    let spec = swgpu_workloads::by_abbr("gups").expect("known benchmark");
    let single = Cell::bench(&spec, base_cfg()).simulate();
    let json = single.to_json();
    if json.contains("tenant") || json.contains("fairness") {
        return Err(format!(
            "single-tenant run emitted tenant stats keys: {json}"
        ));
    }
    if format!("{single}").contains("tenants:") {
        return Err("single-tenant Display rendering grew a tenant block".into());
    }
    for (name, policy) in policies() {
        let tenanted = mix_cell(policy);
        if tenanted.cfg.fingerprint() == base_cfg().fingerprint() {
            return Err(format!("{name}: a tenant layout must re-key the run cache"));
        }
    }
    println!(
        "[tenant-smoke] single-tenant transparency: ok — golden fingerprint \
         {GOLDEN_DEFAULT_FINGERPRINT} intact, no tenant keys emitted"
    );
    Ok(())
}

/// Check 2: the per-tenant walk ledger covers every completed walk.
fn check_walk_conservation() -> Result<(), String> {
    for (name, policy) in policies() {
        let s = mix_cell(policy).simulate();
        if s.timed_out {
            return Err(format!("{name}: two-tenant mix timed out"));
        }
        if s.tenants.len() != 2 {
            return Err(format!(
                "{name}: expected 2 tenant slices, got {}",
                s.tenants.len()
            ));
        }
        for (i, t) in s.tenants.iter().enumerate() {
            if t.instructions == 0 {
                return Err(format!("{name}: tenant {i} retired no instructions"));
            }
        }
        let charged: u64 = s.tenants.iter().map(|t| t.walks).sum();
        if charged != s.walk.translations {
            return Err(format!(
                "{name}: walk ledger leaked — {} walks completed but {} charged \
                 ({} / {} per tenant)",
                s.walk.translations, charged, s.tenants[0].walks, s.tenants[1].walks
            ));
        }
        println!(
            "[tenant-smoke] walk conservation ({name}): ok — {} walks, \
             {} / {} per tenant",
            s.walk.translations, s.tenants[0].walks, s.tenants[1].walks
        );
    }
    Ok(())
}

/// Check 3: the fairness index stays inside its mathematical bounds.
fn check_fairness_bounds() -> Result<(), String> {
    for (name, policy) in policies() {
        let s = mix_cell(policy).simulate();
        let f = s.fairness_index();
        if !(f > 0.0 && f <= 1.0) {
            return Err(format!("{name}: fairness index {f} outside (0, 1]"));
        }
        // Two active tenants: Jain's index is bounded below by 1/n.
        if f < 0.5 {
            return Err(format!(
                "{name}: fairness index {f:.3} below the two-tenant floor of 0.5 \
                 (IPCs {:.3} / {:.3})",
                s.tenants[0].ipc(),
                s.tenants[1].ipc()
            ));
        }
        println!(
            "[tenant-smoke] fairness bounds ({name}): ok — index {f:.3}, \
             IPCs {:.3} / {:.3}",
            s.tenants[0].ipc(),
            s.tenants[1].ipc()
        );
    }
    Ok(())
}

/// Check 4: the multi-tenant machine is bit-for-bit deterministic.
fn check_determinism() -> Result<(), String> {
    for (name, policy) in policies() {
        let a = mix_cell(policy).simulate();
        let b = mix_cell(policy).simulate();
        if a.to_json() != b.to_json() {
            return Err(format!("{name}: two-tenant run is not deterministic"));
        }
    }
    println!("[tenant-smoke] determinism: ok — byte-identical reruns under both policies");
    Ok(())
}

type Check = fn() -> Result<(), String>;

fn main() {
    let checks: [(&str, Check); 4] = [
        (
            "single-tenant transparency",
            check_single_tenant_transparency,
        ),
        ("walk conservation", check_walk_conservation),
        ("fairness bounds", check_fairness_bounds),
        ("determinism", check_determinism),
    ];
    let mut failures = 0;
    for (name, check) in checks {
        if let Err(why) = check() {
            eprintln!("[tenant-smoke] FAIL ({name}) — {why}");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("[tenant-smoke] all multi-tenant checks passed");
}
