//! Extension experiment: multi-tenant address spaces over one GPU.
//!
//! The paper evaluates SoftWalker with a single address space owning the
//! whole machine. This harness co-schedules 2–8 Table 4 workloads as
//! concurrent tenants — each with its own ASID-keyed page table, TLB
//! tags, and SM slice — under both sharing policies the multi-tenant
//! extension supports:
//!
//! * **partitioned** — MIG-style static isolation: each tenant owns a
//!   disjoint window of L2 TLB ways and its walks dispatch only to its
//!   own SMs;
//! * **shared+QoS** — fully shared L2 TLB and walker pool, with a QoS
//!   cap bounding each tenant's concurrently in-flight walks so one
//!   irregular tenant cannot monopolize the walk bandwidth.
//!
//! Every mix pairs irregular with regular benchmarks (the interesting
//! case: the irregular tenant's walk storm is exactly what the QoS cap
//! and the way partition exist to contain). Reported per tenant: IPC
//! over the tenant's own active window, private L2 TLB MPKI, and
//! completed walks; per cell: Jain's fairness index over the tenant
//! IPCs (1.0 = perfectly even progress, 1/n = one tenant hogging the
//! machine).

use swgpu_bench::{mean, parse_args, Cell, Runner, Scale, SystemConfig, Table};
use swgpu_sim::{SharingPolicy, TenantConfig, TenantsConfig};

/// The tenant mixes the harness sweeps: 2, 4, and 8 concurrent tenants,
/// each mix half irregular, half regular (Table 4 classes).
fn mixes() -> Vec<Vec<&'static str>> {
    vec![
        vec!["gups", "2dc"],
        vec!["bfs", "gemm"],
        vec!["gups", "bfs", "2dc", "gemm"],
        vec!["gups", "bfs", "sssp", "spmv", "2dc", "gemm", "fft", "histo"],
    ]
}

/// Both sharing policies, labelled for the table.
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

/// Builds the multi-tenant cell for one mix under one policy: the SMs
/// split evenly across the tenants (earlier tenants take the
/// remainder), every tenant at 10% footprint so even the 8-tenant mix
/// keeps a working set per SM slice comparable to the single-tenant
/// harnesses.
fn mix_cell(mix: &[&str], policy: SharingPolicy, scale: Scale) -> Cell {
    let mut cfg = SystemConfig::SoftWalker.build(scale);
    let n = mix.len();
    let base = cfg.sms / n;
    let rem = cfg.sms % n;
    let tenants = mix
        .iter()
        .enumerate()
        .map(|(i, abbr)| TenantConfig {
            workload: (*abbr).to_string(),
            sms: base + usize::from(i < rem),
        })
        .collect();
    cfg.tenants = Some(TenantsConfig {
        tenants,
        policy,
        sub_entry_sharing: false,
    });
    Cell::tenant_mix(cfg, 10)
}

fn main() {
    let h = parse_args();

    let matrix: Vec<Cell> = mixes()
        .iter()
        .flat_map(|mix| policies().map(|(_, policy)| mix_cell(mix, policy, h.scale)))
        .collect();
    let mut runs = Runner::from_harness(&h).run_cells(&matrix).into_iter();

    let mut table = Table::new(vec![
        "mix".into(),
        "policy".into(),
        "tenant".into(),
        "IPC".into(),
        "MPKI".into(),
        "walks".into(),
        "fairness".into(),
    ]);

    let mut fairness_by_policy = vec![Vec::new(); policies().len()];
    for mix in mixes() {
        let mix_label = mix.join("+");
        for (p, (policy_label, _)) in policies().into_iter().enumerate() {
            let s = runs.next().expect("one run per mix and policy");
            assert_eq!(
                s.tenants.len(),
                mix.len(),
                "{mix_label}: tenant slice count"
            );
            let fairness = s.fairness_index();
            fairness_by_policy[p].push(fairness);
            for (abbr, t) in mix.iter().zip(&s.tenants) {
                // Fairness is a per-cell metric; print it once per cell,
                // on the first tenant's row.
                let shown = if std::ptr::eq(t, &s.tenants[0]) {
                    format!("{fairness:.3}")
                } else {
                    "-".into()
                };
                table.row(vec![
                    mix_label.clone(),
                    policy_label.into(),
                    (*abbr).to_string(),
                    format!("{:.3}", t.ipc()),
                    format!("{:.1}", t.l2_tlb_mpki()),
                    t.walks.to_string(),
                    shown,
                ]);
            }
        }
    }

    println!("Extension — multi-tenant address spaces (2–8 concurrent Table 4 workloads)");
    println!("(per-tenant IPC/MPKI over each tenant's own window; fairness = Jain's index)\n");
    table.print(h.csv);
    for (p, (policy_label, _)) in policies().into_iter().enumerate() {
        let f = &fairness_by_policy[p];
        println!(
            "{policy_label}: mean fairness {:.3} across {} mixes (min {:.3})",
            mean(f),
            f.len(),
            f.iter().cloned().fold(f64::INFINITY, f64::min)
        );
    }
}
