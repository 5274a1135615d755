//! §5.2 hardware overhead accounting: SoftWalker's per-SM storage and the
//! In-TLB MSHR's pending bits, as the paper reports them.

use swgpu_area::{
    cam_area, controller_bitmap_bits, in_tlb_pending_bits, ptw_subsystem_area, relative_area,
    softwalker_bits_per_sm, softwalker_relative_area, PtwAreaConfig,
};
use swgpu_bench::{parse_args, Table};

fn main() {
    // No cells to run, but the flags are still checked (and `--csv`
    // honoured), so a typo fails here as in every other harness.
    let h = parse_args();
    let mut t = Table::new(vec!["item".into(), "value".into(), "paper".into()]);
    t.row(vec![
        "PW Warp context per SM".into(),
        format!("{} bits", softwalker_bits_per_sm()),
        "1470 bits (64 + 126 + 8x160)".into(),
    ]);
    t.row(vec![
        "SoftPWB status bitmap per SM".into(),
        format!("{} bits", controller_bitmap_bits(32)),
        "64 bits (2 per thread)".into(),
    ]);
    t.row(vec![
        "In-TLB MSHR pending bits".into(),
        format!("{} bits", in_tlb_pending_bits(1024)),
        "1024 bits (1 per L2 TLB entry)".into(),
    ]);
    t.row(vec![
        "In-TLB control logic".into(),
        "small fixed allowance in the area model".into(),
        "0.0061 mm^2 @28nm (vs 628.4 mm^2 GA102)".into(),
    ]);
    t.row(vec![
        "Baseline walk subsystem area (a.u.)".into(),
        format!("{:.0}", ptw_subsystem_area(PtwAreaConfig::baseline())),
        "normalization point of Fig. 15".into(),
    ]);
    t.row(vec![
        "192 walkers, 18-port PWB (rel. area)".into(),
        format!("{:.1}x", relative_area(PtwAreaConfig::scaled(192, 18))),
        "3.9% of chip area [50] — prohibitive".into(),
    ]);
    t.row(vec![
        "SoftWalker GPU (rel. area)".into(),
        format!("{:.2}x", softwalker_relative_area(46, 1024)),
        "negligible vs walker scaling".into(),
    ]);
    t.row(vec![
        "PWB CAM, 1 -> 4 ports (area ratio)".into(),
        format!("{:.1}x", cam_area(128, 96, 4) / cam_area(128, 96, 1)),
        "super-linear port scaling".into(),
    ]);

    println!("§5.2 — hardware overhead of SoftWalker and In-TLB MSHR\n");
    t.print(h.csv);
}
