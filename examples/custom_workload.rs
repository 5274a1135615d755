//! Bring your own kernel: implement [`swgpu_sm::InstrSource`] to feed the
//! simulator a custom instruction stream — here, a pointer-chasing linked
//! list traversal, a pattern even harsher on the translation system than
//! the Table 4 suite (no two consecutive accesses share a page, and
//! accesses within a warp serialize).
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use softwalker_repro::{GpuConfig, GpuSimulator, SimInput, TranslationMode};
use swgpu_sm::{InstrSource, WarpInstr};
use swgpu_types::{SmId, VirtAddr, WarpId};

/// A deterministic hash, used to scatter the "list nodes" across pages.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each warp chases its own linked list: every load depends on the
/// previous one (modelled by a 1-instruction stream of single loads), and
/// every node lives on a different page.
struct PointerChase {
    footprint: u64,
    hops_per_warp: u32,
    progress: swgpu_types::FastMap<(SmId, WarpId), u32>,
}

impl InstrSource for PointerChase {
    fn next_instr(&mut self, sm: SmId, warp: WarpId) -> Option<WarpInstr> {
        let hop = self.progress.entry((sm, warp)).or_insert(0);
        if *hop >= self.hops_per_warp {
            return None;
        }
        *hop += 1;
        let seed = (sm.index() as u64) << 32 | (warp.index() as u64) << 16 | u64::from(*hop);
        // All 32 lanes follow 32 parallel lists — each lane's next node is
        // on its own page.
        let addrs = (0..32u64)
            .map(|lane| VirtAddr::new((mix(seed ^ (lane << 48)) % self.footprint) & !7))
            .collect();
        Some(WarpInstr::Load { addrs })
    }
}

fn main() {
    let footprint = 512 * 1024 * 1024;
    for (label, mode) in [
        ("baseline", TranslationMode::HardwarePtw),
        (
            "SoftWalker",
            TranslationMode::SoftWalker { in_tlb_mshr: true },
        ),
    ] {
        let cfg = GpuConfig {
            sms: 8,
            max_warps: 8,
            mode,
            ..GpuConfig::default()
        };
        let workload = PointerChase {
            footprint,
            hops_per_warp: 6,
            progress: Default::default(),
        };
        let input = SimInput::Mapped {
            source: Box::new(workload),
            footprint_bytes: footprint,
        };
        let stats = GpuSimulator::build(cfg, input)
            .expect("a valid config")
            .run();
        println!("pointer chase / {label}:\n{stats}\n");
    }
    println!(
        "Pointer chasing gives SoftWalker its best case: every hop is a TLB miss,\n\
         so walk throughput — not memory bandwidth — bounds progress."
    );
}
