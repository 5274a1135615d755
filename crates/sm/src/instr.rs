//! Warp instructions, instruction sources and the memory coalescer.

use std::collections::BTreeMap;
use swgpu_types::{PageSize, SmId, VirtAddr, Vpn, WarpId, LANES_PER_WARP};

/// One warp-wide instruction as seen by the SM model.
///
/// The compute pipeline is abstracted: a [`WarpInstr::Compute`] occupies
/// the warp's scoreboard for a given number of cycles (modelling issue
/// plus dependency latency of arithmetic work), while a
/// [`WarpInstr::Load`] is a global memory access with one virtual address
/// per active lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpInstr {
    /// Arithmetic work: the warp is scoreboard-blocked for `cycles`.
    Compute {
        /// Dependency latency in cycles (≥ 1).
        cycles: u32,
    },
    /// A global load with up to 32 active-lane addresses.
    Load {
        /// Per-active-lane virtual addresses, 1..=[`LANES_PER_WARP`]
        /// entries. The SM names each page group of an in-flight load by
        /// the index of its first sector, and panics on a load outside
        /// that range.
        addrs: Vec<VirtAddr>,
    },
}

impl WarpInstr {
    /// Convenience constructor for a fully-active coalesced load where
    /// every lane reads consecutive 4-byte words from `base`.
    pub fn coalesced_load(base: VirtAddr) -> Self {
        WarpInstr::Load {
            addrs: (0..LANES_PER_WARP as u64).map(|i| base + i * 4).collect(),
        }
    }

    /// Whether this is a memory instruction.
    pub fn is_load(&self) -> bool {
        matches!(self, WarpInstr::Load { .. })
    }
}

/// Supplies instruction streams to warps. Implemented by the workload
/// generators; the simulator pulls the next instruction when a warp is
/// ready. Returning `None` retires the warp.
pub trait InstrSource {
    /// Next instruction for `(sm, warp)`, or `None` when the warp's work
    /// is exhausted. A [`WarpInstr::Load`] carries 1..=[`LANES_PER_WARP`]
    /// lane addresses; the SM panics on any other count.
    fn next_instr(&mut self, sm: SmId, warp: WarpId) -> Option<WarpInstr>;

    /// Non-consuming look-ahead for translation prefetching: the pages
    /// the next up-to-`lookahead` *load* instructions of `(sm, warp)`
    /// will touch, in stream order, without advancing the stream. The
    /// default (no look-ahead) keeps prefetching inert for sources that
    /// cannot predict their future.
    fn peek_load_vpns(&self, _sm: SmId, _warp: WarpId, _lookahead: u32) -> Vec<Vpn> {
        Vec::new()
    }
}

/// An [`InstrSource`] that replays a fixed per-warp instruction list —
/// used by unit tests and the microbenchmark harness.
#[derive(Debug, Default)]
pub struct SliceSource {
    streams: BTreeMap<(SmId, WarpId), std::vec::IntoIter<WarpInstr>>,
}

impl SliceSource {
    /// Creates an empty source (every warp retires immediately).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns an instruction list to one warp.
    pub fn assign(&mut self, sm: SmId, warp: WarpId, instrs: Vec<WarpInstr>) {
        self.streams.insert((sm, warp), instrs.into_iter());
    }
}

impl InstrSource for SliceSource {
    fn next_instr(&mut self, sm: SmId, warp: WarpId) -> Option<WarpInstr> {
        self.streams.get_mut(&(sm, warp))?.next()
    }
}

/// Replaces `out` with the distinct sector-aligned addresses of a warp's
/// lanes, in ascending order. The VPN is monotone in the address, so each
/// page's sectors form one run (see [`page_groups`]), pages ascending.
pub(crate) fn coalesce_sectors(addrs: &[VirtAddr], sector_bytes: u64, out: &mut Vec<VirtAddr>) {
    // Neighbouring lanes mostly share a sector: keep one address per run
    // of lanes in one sector, and size the buffer by the runs, so a
    // coalesced load's buffer holds 4 sectors, not 32, and grows at most
    // once per larger load.
    let runs = || {
        let mut last = None;
        addrs
            .iter()
            .map(move |&va| va.align_down(sector_bytes))
            .filter(move |&s| last.replace(s) != Some(s))
    };
    out.clear();
    out.reserve(runs().count());
    out.extend(runs());
    out.sort_unstable();
    out.dedup();
}

/// The leading run of `sectors` that lies on the page of `sectors[0]`:
/// the page group of a [`coalesce_sectors`] list that starts there.
pub(crate) fn page_run(sectors: &[VirtAddr], page: PageSize) -> &[VirtAddr] {
    let vpn = page.vpn_of(sectors[0]);
    let n = sectors
        .iter()
        .take_while(|&&va| page.vpn_of(va) == vpn)
        .count();
    &sectors[..n]
}

/// Every page group of a [`coalesce_sectors`] list in order, each with
/// the index of its first sector.
pub(crate) fn page_groups(
    sectors: &[VirtAddr],
    page: PageSize,
) -> impl Iterator<Item = (usize, &[VirtAddr])> {
    let mut first = 0;
    std::iter::from_fn(move || {
        let rest = sectors.get(first..).filter(|r| !r.is_empty())?;
        let run = page_run(rest, page);
        first += run.len();
        Some((first - run.len(), run))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each page group of a load's 32-byte sectors: its page and sectors.
    fn groups(addrs: &[VirtAddr], page: PageSize) -> Vec<(Vpn, Vec<VirtAddr>)> {
        let mut sectors = Vec::new();
        coalesce_sectors(addrs, 32, &mut sectors);
        page_groups(&sectors, page)
            .map(|(first, run)| {
                assert_eq!(run, &sectors[first..first + run.len()]);
                (page.vpn_of(run[0]), run.to_vec())
            })
            .collect()
    }

    #[test]
    fn coalesced_warp_is_one_page_one_or_few_sectors() {
        let instr = WarpInstr::coalesced_load(VirtAddr::new(0x4_0000));
        let WarpInstr::Load { addrs } = instr else {
            panic!("expected load");
        };
        let groups = groups(&addrs, PageSize::Size64K);
        assert_eq!(groups.len(), 1);
        // 32 lanes x 4B = 128B = 4 sectors of 32B.
        assert_eq!(groups[0].1.len(), 4);
    }

    #[test]
    fn divergent_warp_hits_many_pages() {
        let addrs: Vec<_> = (0..32u64)
            .map(|i| VirtAddr::new(i * 0x1_0000)) // one page each
            .collect();
        let groups = groups(&addrs, PageSize::Size64K);
        assert_eq!(groups.len(), 32);
        for g in &groups {
            assert_eq!(g.1.len(), 1);
        }
    }

    #[test]
    fn duplicate_lanes_deduplicate() {
        let addrs = vec![VirtAddr::new(100), VirtAddr::new(100), VirtAddr::new(101)];
        let groups = groups(&addrs, PageSize::Size64K);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 1);
    }

    #[test]
    fn output_is_sorted() {
        let addrs = vec![
            VirtAddr::new(0x3_0000),
            VirtAddr::new(0x1_0000),
            VirtAddr::new(0x1_0040),
        ];
        let groups = groups(&addrs, PageSize::Size64K);
        assert_eq!(groups[0].0, Vpn::new(1));
        assert_eq!(groups[1].0, Vpn::new(3));
        assert!(groups[0].1[0] < groups[0].1[1]);
    }

    #[test]
    fn large_page_groups_keep_every_sector_in_order() {
        // Six sectors of one page, presented out of order and duplicated.
        let addrs: Vec<_> = [5u64, 0, 3, 1, 4, 2, 5, 0]
            .iter()
            .map(|&i| VirtAddr::new(i * 32))
            .collect();
        let groups = groups(&addrs, PageSize::Size64K);
        assert_eq!(groups.len(), 1);
        let want: Vec<_> = (0..6u64).map(|i| VirtAddr::new(i * 32)).collect();
        assert_eq!(&groups[0].1[..], &want[..]);
    }

    #[test]
    fn slice_source_replays_then_retires() {
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(1),
            vec![WarpInstr::Compute { cycles: 3 }],
        );
        assert!(src.next_instr(SmId::new(0), WarpId::new(1)).is_some());
        assert!(src.next_instr(SmId::new(0), WarpId::new(1)).is_none());
        assert!(src.next_instr(SmId::new(0), WarpId::new(0)).is_none());
    }

    #[test]
    fn large_pages_coalesce_more() {
        let addrs: Vec<_> = (0..32u64).map(|i| VirtAddr::new(i * 0x1_0000)).collect();
        let groups64k = groups(&addrs, PageSize::Size64K);
        let groups2m = groups(&addrs, PageSize::Size2M);
        assert_eq!(groups64k.len(), 32);
        assert_eq!(groups2m.len(), 1, "32 x 64KB strides fit in one 2MB page");
    }
}
