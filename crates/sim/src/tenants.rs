//! Per-tenant translation state: which SMs a tenant owns, how its walks
//! share the walkers, and the counters its fairness is measured by.

use crate::config::{GpuConfig, SharingPolicy, TenantsConfig};
use crate::stats::{SimStats, TenantStats};
use swgpu_sm::{InstrSource, Sm, WarpInstr};
use swgpu_tlb::L2TlbComplex;
use swgpu_types::{Asid, SmId, Vpn, WarpId};

/// Routes each global SM to the owning tenant's instruction source.
///
/// Tenant workloads are built for their own SM partition (SM ids
/// `0..tenant_sms`), so the mux rewrites the global SM id to the
/// tenant-local one before forwarding. Warp ids pass through unchanged.
pub struct TenantMuxSource {
    sources: Vec<Box<dyn InstrSource>>,
    /// Global SM index → (tenant index, tenant-local SM id).
    map: Vec<(usize, SmId)>,
}

impl TenantMuxSource {
    /// Builds the mux from the tenant layout and one source per tenant,
    /// in ASID order.
    ///
    /// # Panics
    ///
    /// Panics if the source count does not match the tenant count.
    pub fn new(tenants: &TenantsConfig, sources: Vec<Box<dyn InstrSource>>) -> Self {
        assert_eq!(
            tenants.len(),
            sources.len(),
            "one instruction source per tenant"
        );
        let mut map = Vec::new();
        for i in 0..tenants.len() {
            for (local, _) in tenants.sm_range(i).enumerate() {
                map.push((i, SmId::new(local as u16)));
            }
        }
        Self { sources, map }
    }
}

impl InstrSource for TenantMuxSource {
    fn next_instr(&mut self, sm: SmId, warp: WarpId) -> Option<WarpInstr> {
        let (tenant, local) = self.map[sm.index()];
        self.sources[tenant].next_instr(local, warp)
    }

    fn peek_load_vpns(&self, sm: SmId, warp: WarpId, lookahead: u32) -> Vec<Vpn> {
        let (tenant, local) = self.map[sm.index()];
        self.sources[tenant].peek_load_vpns(local, warp, lookahead)
    }
}

/// The tenant table, indexed by ASID (one tenant without a tenants
/// config).
pub(crate) struct TenantTable {
    // SM → tenant binding (all `Asid::ZERO` without a tenants config).
    sm_asids: Vec<Asid>,
    // Partitioned-policy dispatch masks: `tenant_masks[asid][sm]` is
    // true iff the SM belongs to the tenant. Empty in shared mode and
    // on single-tenant runs (empty mask = every SM eligible).
    tenant_masks: Vec<Vec<bool>>,
    // Shared-policy QoS: per-tenant cap on concurrently in-flight walks
    // (`None` disables gating entirely) and the live per-tenant count.
    qos_cap: Option<u32>,
    inflight_walks: Vec<u32>,
    // Per-tenant MPKI/fairness raw counters (always maintained, only
    // surfaced in the stats on multi-tenant runs).
    fresh_misses: Vec<u64>,
    walks: Vec<u64>,
}

impl TenantTable {
    /// Binds every SM to its tenant and wires the sharing policy into the
    /// L2 TLB. Partitioned (MIG-style) statically splits the L2 TLB ways
    /// and pins dispatch to each tenant's SM partition; Shared leaves
    /// capacity open but caps each tenant's concurrently in-flight walks
    /// (QoS).
    pub(crate) fn new(cfg: &GpuConfig, l2: &mut L2TlbComplex<SmId>) -> Self {
        let n = cfg.tenants.as_ref().map_or(1, TenantsConfig::len);
        let mut sm_asids = vec![Asid::ZERO; cfg.sms];
        let mut qos_cap = None;
        let mut tenant_masks = Vec::new();
        if let Some(t) = cfg.tenants.as_ref() {
            for i in 0..n {
                for s in t.sm_range(i) {
                    sm_asids[s] = Asid::new(i as u16);
                }
            }
            match t.policy {
                SharingPolicy::Partitioned => {
                    let ways = cfg.l2_tlb.assoc / n;
                    l2.set_way_partition((0..n).map(|i| (i * ways, ways)).collect());
                    tenant_masks = (0..n)
                        .map(|i| sm_asids.iter().map(|a| a.index() == i).collect())
                        .collect();
                }
                SharingPolicy::Shared { max_inflight_walks } => {
                    qos_cap = Some(max_inflight_walks);
                }
            }
            if t.sub_entry_sharing {
                l2.set_sub_entry_sharing(true);
            }
        }
        Self {
            sm_asids,
            tenant_masks,
            qos_cap,
            inflight_walks: vec![0; n],
            fresh_misses: vec![0; n],
            walks: vec![0; n],
        }
    }

    /// The tenant that owns an SM (always [`Asid::ZERO`] on single-tenant
    /// runs).
    pub(crate) fn asid_of(&self, sm: SmId) -> Asid {
        self.sm_asids[sm.index()]
    }

    /// The SMs `asid` may dispatch walks to; empty means every SM.
    pub(crate) fn sms_of(&self, asid: Asid) -> &[bool] {
        self.tenant_masks
            .get(asid.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Whether the shared-policy QoS cap forbids `asid` another
    /// concurrently in-flight walk. Always false without a cap
    /// (single-tenant and partitioned runs).
    pub(crate) fn at_walk_cap(&self, asid: Asid) -> bool {
        self.qos_cap
            .is_some_and(|cap| self.inflight_walks[asid.index()] >= cap)
    }

    pub(crate) fn walk_started(&mut self, asid: Asid) {
        self.inflight_walks[asid.index()] += 1;
    }

    pub(crate) fn walk_done(&mut self, asid: Asid) {
        let n = &mut self.inflight_walks[asid.index()];
        *n = n.saturating_sub(1);
    }

    pub(crate) fn count_fresh_miss(&mut self, asid: Asid) {
        self.fresh_misses[asid.index()] += 1;
    }

    pub(crate) fn count_walk(&mut self, asid: Asid) {
        self.walks[asid.index()] += 1;
    }

    /// Appends one [`TenantStats`] per tenant of a multi-tenant `layout`.
    pub(crate) fn fold(&self, layout: Option<&TenantsConfig>, sms: &[Sm], stats: &mut SimStats) {
        let Some(t) = layout else {
            return;
        };
        for i in 0..t.len() {
            let mut ts = TenantStats {
                fresh_l2_misses: self.fresh_misses[i],
                walks: self.walks[i],
                ..Default::default()
            };
            for sm in &sms[t.sm_range(i)] {
                ts.instructions += sm.stats().instructions;
                ts.loads += sm.stats().loads;
                ts.cycles = ts.cycles.max(sm.last_issue_cycle().value());
            }
            stats.tenants.push(ts);
        }
    }
}
