//! UVM demand paging with SoftWalker (§5.5): a PW Warp that hits an
//! invalid PTE executes `FFB`, logging the fault for the UVM driver
//! exactly as a hardware walker would; the driver maps the page and the
//! translation is replayed.
//!
//! This example drives one PW Warp unit directly against a page table
//! with a hole, consumes the fault buffer as a UVM driver would, installs
//! the missing mapping, replays the walk and verifies the translation.
//!
//! ```sh
//! cargo run --release --example uvm_demand_paging
//! ```

use softwalker_repro::{PwWarpConfig, PwWarpUnit, SwWalkRequest};
use swgpu_mem::{MemReq, PhysMem};
use swgpu_pt::{AddressSpace, PageWalkCache};
use swgpu_types::{Asid, Cycle, DelayQueue, IdGen, PageSize, VirtAddr, Vpn};

/// Runs the unit until it drains, answering LDPT reads after 100 cycles.
fn drain(
    unit: &mut PwWarpUnit,
    mem: &PhysMem,
    pwc: &mut PageWalkCache,
    ids: &mut IdGen,
) -> Vec<softwalker::SwCompletion> {
    let mut now = Cycle::ZERO;
    let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
    let mut done = Vec::new();
    while !(unit.is_idle() && inflight.is_empty()) {
        unit.tick(now, ids);
        while let Some(req) = unit.pop_mem_request() {
            inflight.push(now + 100, req);
        }
        while let Some(resp) = inflight.pop_ready(now) {
            unit.on_mem_response(resp, now, mem, pwc);
        }
        while let Some(c) = unit.pop_completion() {
            done.push(c);
        }
        now = now.next();
    }
    done
}

fn main() {
    let mut mem = PhysMem::new();
    let mut space = AddressSpace::new(PageSize::Size64K, &mut mem);
    // Map 1 MB but leave everything above unmapped — the "cold" UVM pages.
    space.map_region(VirtAddr::new(0), 1024 * 1024, &mut mem);
    let mut pwc = PageWalkCache::new(32);
    pwc.set_root(Asid::ZERO, space.radix().root());
    let mut ids = IdGen::new();
    let mut unit = PwWarpUnit::new(PwWarpConfig::default());

    let cold_vpn = Vpn::new(512); // 32 MB in: not mapped yet
    println!("1. GPU kernel touches an unmapped page (vpn={cold_vpn})");

    let start = pwc.lookup(Asid::ZERO, cold_vpn);
    unit.accept(
        Cycle::ZERO,
        SwWalkRequest::new(
            cold_vpn,
            Cycle::ZERO,
            Cycle::ZERO,
            start.level,
            start.node_base,
        ),
    );
    let completions = drain(&mut unit, &mem, &mut pwc, &mut ids);
    assert_eq!(completions[0].pfn, None, "walk must fault");
    println!("2. PW Warp walk hits an invalid PTE and executes FFB");

    let faults = unit.drain_faults();
    assert_eq!(faults.len(), 1);
    println!(
        "3. UVM driver drains the fault buffer: vpn={} (faulting level {})",
        faults[0].vpn, faults[0].level
    );

    // The driver migrates the page and installs the PTE — identical to the
    // protocol used with hardware walkers (§5.5).
    let pfn = space.map_page(faults[0].vpn, &mut mem);
    println!("4. Driver maps the page to frame {pfn} and resumes the GPU");

    let start = pwc.lookup(Asid::ZERO, cold_vpn);
    unit.accept(
        Cycle::ZERO,
        SwWalkRequest::new(
            cold_vpn,
            Cycle::ZERO,
            Cycle::ZERO,
            start.level,
            start.node_base,
        ),
    );
    let replay = drain(&mut unit, &mem, &mut pwc, &mut ids);
    assert_eq!(replay[0].pfn, Some(pfn));
    println!(
        "5. Replayed walk translates vpn={} -> pfn={} via FL2T — demand paging complete",
        cold_vpn, pfn
    );
}
