//! Table 1: qualitative comparison with prior page-walk-mitigation work.
//!
//! Reproduced verbatim from the paper (it is a positioning table, not a
//! measurement); the harness exists so the full table/figure index is
//! runnable end to end.

use swgpu_bench::{parse_args, Table};

fn main() {
    // No cells to run, but the flags are still checked (and `--csv`
    // honoured), so a typo fails here as in every other harness.
    let h = parse_args();
    let mut t = Table::new(vec![
        "technique".into(),
        "purpose".into(),
        "approach".into(),
        "flexibility".into(),
        "needs HW walker?".into(),
        "walk throughput".into(),
    ]);
    t.row(vec![
        "NHA [86]".into(),
        "reduce # page walks".into(),
        "coalescing".into(),
        "no".into(),
        "yes".into(),
        "~16x".into(),
    ]);
    t.row(vec![
        "PW scheduling [85]".into(),
        "reduce warp divergence".into(),
        "scheduling".into(),
        "no".into(),
        "yes".into(),
        "unchanged".into(),
    ]);
    t.row(vec![
        "FS-HPT [32]".into(),
        "remove pointer chasing".into(),
        "hashed page table".into(),
        "no".into(),
        "yes".into(),
        "unchanged".into(),
    ]);
    t.row(vec![
        "SoftWalker (ours)".into(),
        "increase walk throughput".into(),
        "software threads".into(),
        "yes (SW-based)".into(),
        "no".into(),
        "32 x (# SMs)".into(),
    ]);

    println!("Table 1 — comparison with prior work mitigating page walks\n");
    t.print(h.csv);
    println!(
        "\nIn this reproduction: NHA = `PtwConfig::nha`, FS-HPT = `TranslationMode::HashedPtw`,\n\
         SoftWalker = `TranslationMode::SoftWalker`; walk throughput 32 threads x 46 SMs = 1472 concurrent walks."
    );
}
