//! Table 3: the experimental setup — pretty-prints the default
//! configuration so it can be diffed against the paper's table.

use swgpu_bench::{parse_args, Table};
use swgpu_sim::GpuConfig;

fn main() {
    // No cells to run, but the flags are still checked (and `--csv`
    // honoured), so a typo fails here as in every other harness.
    let h = parse_args();
    let c = GpuConfig::default();
    let mut t = Table::new(vec!["component".into(), "parameter".into()]);
    t.row(vec!["# of SMs".into(), format!("{} SMs", c.sms)]);
    t.row(vec![
        "Clock frequency".into(),
        "1500 MHz (all latencies in core cycles)".into(),
    ]);
    t.row(vec![
        "Max # of warps".into(),
        format!("{} warps per SM", c.max_warps),
    ]);
    t.row(vec![
        "L1 TLB (per SM)".into(),
        format!(
            "{} entries, {} page, {} cycles, fully-associative, {} MSHR entries, {} merges",
            c.l1_tlb.entries,
            c.page_size,
            c.l1_tlb_latency,
            c.l1_mshr.entries,
            c.l1_mshr.max_merges
        ),
    ]);
    t.row(vec![
        "L2 TLB (shared)".into(),
        format!(
            "{} entries, {} page, {} cycles, {}-way, {} MSHR entries, {} merges",
            c.l2_tlb.entries,
            c.page_size,
            c.l2_tlb_latency,
            c.l2_tlb.assoc,
            c.l2_mshr.entries,
            c.l2_mshr.max_merges
        ),
    ]);
    t.row(vec![
        "L1D cache".into(),
        format!(
            "{} KB per SM, {} cycles, {}B line ({}B sector)",
            c.l1d.size_bytes / 1024,
            c.l1d.hit_latency,
            c.l1d.line_bytes,
            c.l1d.sector_bytes
        ),
    ]);
    t.row(vec![
        "L2D cache".into(),
        format!(
            "{} MB, {} cycles, {}B line ({}B sector)",
            c.l2d.size_bytes / (1024 * 1024),
            c.l2d.hit_latency,
            c.l2d.line_bytes,
            c.l2d.sector_bytes
        ),
    ]);
    t.row(vec![
        "Memory".into(),
        format!(
            "GDDR6-like, {} channels, ~448 GB/s aggregate, {}+{} cycle latency",
            c.dram.channels, c.dram.service_cycles, c.dram.latency
        ),
    ]);
    t.row(vec![
        "Page table".into(),
        "four-level radix page table".into(),
    ]);
    t.row(vec![
        "Page walk cache".into(),
        format!("{} entries, fully-associative", c.pwc_entries),
    ]);
    t.row(vec![
        "Page table walker".into(),
        format!("{} page table walkers", c.ptw.walkers),
    ]);
    t.row(vec![
        "SoftWalker".into(),
        format!(
            "{} page walk threads per SM, {} SoftPWB entries per SM, {} L2 TLB MSHR entries ({} merges), up to {} entry In-TLB MSHR",
            c.pw_warp.threads,
            c.pw_warp.softpwb_entries,
            c.l2_mshr.entries,
            c.l2_mshr.max_merges,
            c.in_tlb_max
        ),
    ]);

    println!("Table 3 — experimental setup (GpuConfig::default())\n");
    t.print(h.csv);
}
