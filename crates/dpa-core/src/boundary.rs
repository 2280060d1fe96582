//! The phase-boundary pass: what [`crate::run_phases`] does to the per-node
//! [`PhaseCarry`]s between stopping phase *k*'s machine and starting phase
//! *k+1*'s. Plain functions over the carried tables, in two halves:
//!
//! * `close_phase` reads phase *k*'s apps (the promotion generation) and
//!   does what [`Policy`] says: nothing, or promote replicas.
//! * `open_phase` reads phase *k+1*'s apps (current generations): refresh
//!   the replica directories and plan the differential deltas.
//!
//! No object changes home here or anywhere else (DESIGN.md §6).
//! Everything iterates owners in node order over deterministically sorted
//! picks, so replays are bit-identical.

use crate::config::{DpaConfig, Policy};
use crate::proc_dpa::PhaseCarry;
use crate::work::PtrApp;
use global_heap::{AffinityTable, GPtr, ReplicaDirectory};

/// Per-consumer floor on affinity reporting: a node reports a pointer to
/// its owner only when its own dereference count for the phase reached
/// it. A consumer that touched a pointer fewer than four times (uniform
/// background, already absorbed by the differential carry) reports nothing
/// about it, so hub-shaped pointers clear the floor on every consumer and
/// noise clears it on none.
pub(crate) const AFFINITY_REPORT_FLOOR: u32 = 4;

/// Fewest distinct consumers with affinity signal that make a pointer a
/// promotion candidate.
pub(crate) const REPLICATION_MIN_FANOUT: usize = 3;

/// Fewest remote dereferences, summed over consumers, that make a pointer
/// a promotion candidate.
pub(crate) const REPLICATION_THRESHOLD: u64 = 12;

/// The replication promotion policy over one owner's accumulated affinity:
/// a pointer read by at least [`REPLICATION_MIN_FANOUT`] consumers, at least
/// [`REPLICATION_THRESHOLD`] times in total, with *no* dominant consumer
/// (top ≤ half the total) is promoted, best candidates first (reads desc,
/// fan-out desc, pointer bits), while the owner's directory has room under
/// `replication_budget`. `gen_of` stamps the promotion.
pub(crate) fn promote_replicas(
    cfg: &DpaConfig,
    table: &AffinityTable,
    dir: &mut ReplicaDirectory,
    mut gen_of: impl FnMut(GPtr) -> u32,
) {
    let mut eligible: Vec<(GPtr, u64, Vec<u16>)> = Vec::new();
    for (ptr, row) in table.summary() {
        let total: u64 = row.iter().map(|&(_, n)| n).sum();
        let top: u64 = row.iter().map(|&(_, n)| n).max().unwrap_or(0);
        if !dir.is_replicated(ptr)
            && row.len() >= REPLICATION_MIN_FANOUT
            && total >= REPLICATION_THRESHOLD
            && top * 2 <= total
        {
            eligible.push((ptr, total, row.iter().map(|&(c, _)| c).collect()));
        }
    }
    eligible.sort_unstable_by(|a, b| {
        (b.1.cmp(&a.1))
            .then(b.2.len().cmp(&a.2.len()))
            .then(a.0.bits().cmp(&b.0.bits()))
    });
    eligible.truncate(cfg.replication_budget.saturating_sub(dir.len()));
    for (ptr, _, consumers) in eligible {
        dir.promote(ptr, gen_of(ptr), consumers);
    }
}

/// Plan the differential hand-off in place. Each node's carried copies
/// (those its carried M holds) name their homes; `awaiting` names each
/// carried home once — the consumer gates its first strip on hearing from
/// every one — and the home's `deltas` gain a `(consumer, changed)` list:
/// the carried pointers whose stamp differs from `gen_of(home, ptr)`, in
/// pointer-bit order. An unchanged pair still gets its empty list: that is
/// the owner's all-clear.
pub(crate) fn plan_deltas<W>(
    carries: &mut [PhaseCarry<W>],
    mut gen_of: impl FnMut(u16, GPtr) -> u32,
) {
    // Consumers in node order, so every owner's fan-out (and with it the
    // send order and seq assignment) comes out sorted by consumer.
    // One buffer sorts every consumer's carried copies.
    let mut held = Vec::new();
    for me in 0..carries.len() as u16 {
        held.clear();
        held.extend((carries[me as usize].tables.iter()).flat_map(|m| m.arrivals().entries()));
        held.sort_unstable_by_key(|&(p, _, _)| p.bits());
        let mut awaiting: Vec<u16> = Vec::new();
        for &(ptr, _, gen) in &held {
            let home = ptr.node();
            let out = &mut carries[home as usize].deltas;
            if out.last().is_none_or(|&(consumer, _)| consumer != me) {
                out.push((me, Vec::new()));
                awaiting.push(home);
            }
            if gen_of(home, ptr) != gen {
                out.last_mut().expect("pushed above").1.push(ptr);
            }
        }
        carries[me as usize].awaiting = awaiting;
    }
}

/// Close phase *k* under `cfg.policy`, reading the promotion generation
/// from phase *k*'s apps (`app_at(node)`; affinity accumulates at a
/// pointer's birth home, so that is the app asked). `Cache` does nothing,
/// `Replicate` promotes.
pub(crate) fn close_phase<'a, A: PtrApp + 'a>(
    cfg: &DpaConfig,
    carries: &mut [PhaseCarry<A::Work>],
    app_at: impl Fn(u16) -> &'a A,
) {
    match cfg.policy {
        Policy::Cache => {}
        Policy::Replicate => {
            for c in carries.iter_mut() {
                let table = c.affinity.as_ref().expect("Replicate carries affinity");
                let dir = c
                    .replication
                    .as_mut()
                    .expect("Replicate carries a directory");
                promote_replicas(cfg, table, dir, |p| app_at(p.node()).object_generation(p));
            }
        }
    }
}

/// Open phase *k+1* against its apps' generations: refresh every replica
/// entry — a moved generation flags a re-broadcast, an unchanged one stays
/// silent (its consumers carry it and the all-clear validates it) — then
/// plan the differential deltas.
pub(crate) fn open_phase<'a, A: PtrApp + 'a>(
    cfg: &DpaConfig,
    carries: &mut [PhaseCarry<A::Work>],
    app_at: impl Fn(u16) -> &'a A,
) {
    for (i, c) in carries.iter_mut().enumerate() {
        if let Some(dir) = c.replication.as_mut() {
            for ptr in dir.ptrs() {
                dir.set_gen(ptr, app_at(i as u16).object_generation(ptr));
            }
        }
    }
    if cfg.differential {
        plan_deltas(carries, |home, p| app_at(home).object_generation(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use global_heap::ObjClass;

    fn ptr(node: u16, index: u64) -> GPtr {
        GPtr::new(node, ObjClass(0), index)
    }

    /// Node 0's affinity after a phase in which, per `(index, reads)` row,
    /// consumer `1 + k` reported `reads[k]` dereferences of object `index`.
    fn owner_table(rows: &[(u64, &[u64])]) -> AffinityTable {
        let mut t = AffinityTable::new();
        for &(index, reads) in rows {
            for (k, &n) in reads.iter().enumerate() {
                t.record(ptr(0, index), 1 + k as u16, n, 0);
            }
        }
        t
    }

    fn repl_cfg(budget: usize) -> DpaConfig {
        DpaConfig {
            replication_budget: budget,
            ..DpaConfig::dpa_replicating(8)
        }
    }

    /// Promote over node 0's `table` into `dir` and return it.
    fn promote(
        cfg: &DpaConfig,
        table: &AffinityTable,
        mut dir: ReplicaDirectory,
    ) -> ReplicaDirectory {
        promote_replicas(cfg, table, &mut dir, |_| 7);
        dir
    }

    #[test]
    fn promotion_bar_is_inclusive_on_all_three_edges() {
        let table = owner_table(&[
            // Exactly at the bar: fan-out 3, 12 reads, top * 2 == total.
            (1, &[6, 3, 3]),
            // Fan-out 2.
            (2, &[6, 6]),
            // 11 reads.
            (3, &[5, 3, 3]),
            // A dominant consumer: 7 * 2 > 13.
            (4, &[7, 3, 3]),
        ]);
        let dir = promote(&repl_cfg(8), &table, ReplicaDirectory::new());
        assert_eq!(dir.ptrs(), vec![ptr(0, 1)]);
        let e = dir.entry(ptr(0, 1)).expect("promoted");
        assert_eq!((e.gen, e.consumers.as_slice()), (7, &[1, 2, 3][..]));
    }

    #[test]
    fn promotion_fills_only_the_room_left_under_the_budget() {
        let table = owner_table(&[
            (1, &[5, 5, 5]),
            (2, &[9, 9, 9]),
            // Already replicated: skipped, but it occupies budget.
            (3, &[20, 20, 20]),
        ]);
        let mut dir = ReplicaDirectory::new();
        dir.promote(ptr(0, 3), 1, vec![1, 2, 3]);
        let dir = promote(&repl_cfg(2), &table, dir);
        assert_eq!(
            dir.ptrs(),
            vec![ptr(0, 2), ptr(0, 3)],
            "one slot, best candidate"
        );
        assert_eq!(
            dir.entry(ptr(0, 3)).expect("kept").gen,
            1,
            "not re-promoted"
        );
    }

    #[test]
    fn promotion_orders_by_reads_then_fanout_then_pointer_bits() {
        let table = owner_table(&[
            // 20 reads, fan-out 3 — lowest bits, still last.
            (1, &[7, 7, 6]),
            // 20 reads, fan-out 4, twice: bits break the tie.
            (3, &[5, 5, 5, 5]),
            (2, &[5, 5, 5, 5]),
            // 24 reads: first.
            (4, &[8, 8, 8]),
        ]);
        let order = [ptr(0, 4), ptr(0, 2), ptr(0, 3), ptr(0, 1)];
        for room in 1..=order.len() {
            let dir = promote(&repl_cfg(room), &table, ReplicaDirectory::new());
            let mut want = order[..room].to_vec();
            want.sort_unstable_by_key(|p| p.bits());
            assert_eq!(dir.ptrs(), want, "budget {room}");
        }
    }

    /// A carry whose M holds a copy of each `(ptr, generation)`.
    fn carry<W>(held: Vec<(GPtr, u32)>) -> PhaseCarry<W> {
        let mut map = crate::PointerMap::new();
        for (ptr, gen) in held {
            map.arrivals_mut().preload_gen(ptr, 8, gen);
        }
        PhaseCarry {
            affinity: None,
            replication: None,
            tables: Some(map),
            awaiting: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// `close_phase` under `policy` over four carries holding everything
    /// a replicating run carries (affinity and an empty directory each), so
    /// what an arm leaves alone shows. Node 0's hub (`ptr(0, 1)`) has three
    /// equal consumers and clears the promotion bar; consumer 1 dominates
    /// its `ptr(0, 2)`. Synth objects are at generation 0.
    fn close_under(policy: Policy) -> (Vec<AffinityTable>, Vec<ReplicaDirectory>) {
        use crate::synth::{SynthApp, SynthParams, SynthWorld};
        let cfg = DpaConfig {
            policy,
            ..DpaConfig::dpa_replicating(8)
        };
        let table = owner_table(&[(1, &[9, 9, 9]), (2, &[9])]);
        let mut carries: Vec<PhaseCarry<_>> = (0..4)
            .map(|node| PhaseCarry {
                affinity: Some(if node == 0 {
                    table.clone()
                } else {
                    AffinityTable::new()
                }),
                replication: Some(ReplicaDirectory::new()),
                ..carry(Vec::new())
            })
            .collect();
        let app = SynthApp::new(SynthWorld::build(SynthParams::default()), 0, 0);
        close_phase(&cfg, &mut carries, |_| &app);
        carries
            .into_iter()
            .map(|c| (c.affinity.unwrap(), c.replication.unwrap()))
            .unzip()
    }

    #[test]
    fn close_phase_under_cache_touches_no_carry() {
        let (tables, dirs) = close_under(Policy::Cache);
        assert_eq!(tables[0].summary().len(), 2, "kept, unread");
        assert!(dirs.iter().all(ReplicaDirectory::is_empty));
    }

    #[test]
    fn close_phase_under_replicate_promotes_only_the_hub() {
        let (tables, dirs) = close_under(Policy::Replicate);
        assert_eq!(tables[0].summary().len(), 2, "affinity keeps accumulating");
        assert_eq!(
            dirs[0].ptrs(),
            vec![ptr(0, 1)],
            "the dominated pointer stays cached"
        );
        let e = dirs[0].entry(ptr(0, 1)).expect("promoted");
        assert_eq!((e.gen, e.consumers.as_slice()), (0, &[1, 2, 3][..]));
        assert!(dirs[1..].iter().all(ReplicaDirectory::is_empty));
    }

    #[test]
    fn delta_fanout_is_sorted_by_consumer_and_each_home_awaited_once() {
        let (a, b, c) = (ptr(3, 1), ptr(3, 2), ptr(0, 9));
        // Carried copies are planned in pointer-bit order, so `c` (node 0)
        // precedes node 3's objects.
        let held = vec![(c, 0), (a, 0), (b, 0)];
        let mut carries: Vec<PhaseCarry<()>> = vec![
            carry(vec![(a, 0), (b, 0)]),
            carry(held.clone()),
            carry(held),
            carry(Vec::new()),
        ];
        plan_deltas(&mut carries, |_, p| u32::from(p.node() == 3));
        assert_eq!(carries[0].awaiting, vec![3]);
        assert_eq!(carries[1].awaiting, vec![0, 3]);
        assert_eq!(carries[2].awaiting, vec![0, 3]);
        assert_eq!(carries[0].deltas, vec![(1, Vec::new()), (2, Vec::new())]);
        assert_eq!(
            carries[3].deltas,
            vec![(0, vec![a, b]), (1, vec![a, b]), (2, vec![a, b])]
        );
    }
}
