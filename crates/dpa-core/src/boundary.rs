//! The phase-boundary pass: what [`crate::run_phases`] does to the per-node
//! [`PhaseCarry`]s between stopping phase *k*'s machine and starting phase
//! *k+1*'s. Plain functions over the carried tables, in two halves:
//!
//! * `close_phase` reads phase *k*'s apps (object sizes, the promotion
//!   generation): promote replicas, re-home.
//! * `open_phase` reads phase *k+1*'s apps (current generations): refresh
//!   the replica directories and plan the differential deltas.
//!
//! Everything iterates owners in node order over deterministically sorted
//! picks, so replays are bit-identical.

use crate::config::DpaConfig;
use crate::fxmap::{FxHashMap, FxHashSet};
use crate::proc_dpa::PhaseCarry;
use crate::work::PtrApp;
use global_heap::{GPtr, MigrationTable, ReplicaDirectory};

/// The replication promotion policy over each owner's accumulated affinity:
/// a pointer read by at least `replication_min_fanout` consumers, at least
/// `replication_threshold` times in total, with *no* dominant consumer
/// (top ≤ half the total — the shape where re-homing would merely move the
/// hot spot) is promoted, best candidates first (reads desc, fan-out desc,
/// pointer bits), while the owner's directory has room under
/// `replication_budget`. `gen_of` stamps the promotion.
///
/// Each owner's pin set is then rebuilt from its directory, so this must
/// run *before* [`rehome`]: a freshly promoted pointer cannot be re-homed
/// out from under its consumer set at the same boundary, and a pointer
/// demoted on the way out of the phase is eligible for migration again.
pub(crate) fn promote_replicas(
    cfg: &DpaConfig,
    tables: &mut [MigrationTable],
    dirs: &mut [ReplicaDirectory],
    mut gen_of: impl FnMut(GPtr) -> u32,
) {
    for (table, dir) in tables.iter_mut().zip(dirs) {
        let mut eligible: Vec<(GPtr, u64, Vec<u16>)> = Vec::new();
        for (ptr, row) in table.affinity_summary() {
            let total: u64 = row.iter().map(|&(_, n)| n).sum();
            let top: u64 = row.iter().map(|&(_, n)| n).max().unwrap_or(0);
            if !dir.is_replicated(ptr)
                && row.len() >= cfg.replication_min_fanout
                && total >= cfg.replication_threshold
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
        table.set_pins(&dir.ptrs());
    }
}

/// Commit the phase's accumulated affinity — the one place an object
/// changes home: every owner picks its dominant-consumer moves
/// (`migration_threshold`, at most `migration_budget` per owner) and the
/// objects are re-homed offline — no messages, the hand-off models shipping
/// them alongside the phase barrier. Stub and adoption are installed in
/// one step, so no stub ever points at a node that does not hold the
/// object. Returns the pointers that changed home.
pub(crate) fn rehome(
    cfg: &DpaConfig,
    tables: &mut [MigrationTable],
    mut size_of: impl FnMut(GPtr) -> u32,
) -> Vec<GPtr> {
    let mut moved = Vec::new();
    for owner in 0..tables.len() {
        for mv in tables[owner].pick_migrations(cfg.migration_threshold, cfg.migration_budget) {
            let size = size_of(mv.ptr);
            if tables[owner].depart(mv.ptr, mv.to) {
                tables[mv.to as usize].adopt(mv.ptr, size);
                moved.push(mv.ptr);
            }
        }
    }
    moved
}

/// Plan the differential hand-off in place. Each node's carried `arrivals`
/// are pruned of entries it now serves itself (`home == me`) and of
/// entries in `moved` (re-homed at this boundary), so the next use
/// refetches from the new home. For what survives, `awaiting` names each
/// carried home once — the consumer gates its first strip on hearing from
/// every one — and the home's `deltas` gain a `(consumer, changed)` list:
/// the carried pointers whose stamp differs from `gen_of(home, ptr)`, in
/// pointer-bit order (arrivals come sorted). An unchanged pair still gets
/// its empty list: that is the owner's all-clear.
pub(crate) fn plan_deltas<W>(
    carries: &mut [PhaseCarry<W>],
    moved: &FxHashSet<GPtr>,
    mut gen_of: impl FnMut(u16, GPtr) -> u32,
) {
    // Current home of a carried pointer: the adopting node if any table
    // claims it, else the birth home in the pointer bits.
    let mut adopted_at: FxHashMap<GPtr, u16> = FxHashMap::default();
    for (i, c) in carries.iter().enumerate() {
        for (bits, _) in c.migration.iter().flat_map(|t| t.adopted_entries()) {
            adopted_at.insert(GPtr::from_bits(bits), i as u16);
        }
    }
    // Consumers in node order, so every owner's fan-out (and with it the
    // send order and seq assignment) comes out sorted by consumer.
    for me in 0..carries.len() as u16 {
        let entries = std::mem::take(&mut carries[me as usize].arrivals);
        let mut kept = Vec::with_capacity(entries.len());
        let mut awaiting: Vec<u16> = Vec::new();
        for (ptr, size, gen) in entries {
            let home = adopted_at.get(&ptr).copied().unwrap_or_else(|| ptr.node());
            if home == me || moved.contains(&ptr) {
                continue;
            }
            let out = &mut carries[home as usize].deltas;
            if out.last().is_none_or(|&(consumer, _)| consumer != me) {
                out.push((me, Vec::new()));
                awaiting.push(home);
            }
            if gen_of(home, ptr) != gen {
                out.last_mut().expect("pushed above").1.push(ptr);
            }
            kept.push((ptr, size, gen));
        }
        carries[me as usize].arrivals = kept;
        carries[me as usize].awaiting = awaiting;
    }
}

/// Close phase *k*: promote, re-home, reading sizes and the promotion
/// generation from phase *k*'s apps (`app_at(node)`; affinity accumulates
/// at a pointer's birth home, so that is the app asked). Returns every
/// pointer whose home changed, for [`open_phase`] to prune from the carried
/// arrivals.
pub(crate) fn close_phase<'a, A: PtrApp + 'a>(
    cfg: &DpaConfig,
    carries: &mut [PhaseCarry<A::Work>],
    app_at: impl Fn(u16) -> &'a A,
) -> FxHashSet<GPtr> {
    if !cfg.migration_enabled() {
        return FxHashSet::default();
    }
    let mut tables: Vec<MigrationTable> = carries
        .iter_mut()
        .map(|c| c.migration.take().expect("migration enabled"))
        .collect();
    if cfg.replication {
        let mut dirs: Vec<ReplicaDirectory> = carries
            .iter_mut()
            .map(|c| c.replication.take().expect("replication enabled"))
            .collect();
        promote_replicas(cfg, &mut tables, &mut dirs, |p| {
            app_at(p.node()).object_generation(p)
        });
        for (c, dir) in carries.iter_mut().zip(dirs) {
            c.replication = Some(dir);
        }
    }
    let moved = rehome(cfg, &mut tables, |p| app_at(p.node()).object_size(p));
    for (c, table) in carries.iter_mut().zip(tables) {
        c.migration = Some(table);
    }
    moved.into_iter().collect()
}

/// Open phase *k+1* against its apps' generations: refresh every replica
/// entry — a moved generation flags a re-broadcast, an unchanged one stays
/// silent (its consumers carry it and the all-clear validates it) — then
/// plan the differential deltas.
pub(crate) fn open_phase<'a, A: PtrApp + 'a>(
    cfg: &DpaConfig,
    carries: &mut [PhaseCarry<A::Work>],
    moved: &FxHashSet<GPtr>,
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
        plan_deltas(carries, moved, |home, p| app_at(home).object_generation(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use global_heap::ObjClass;

    fn ptr(node: u16, index: u64) -> GPtr {
        GPtr::new(node, ObjClass(0), index)
    }

    /// Node 0's table after a phase in which, per `(index, reads)` row,
    /// consumer `1 + k` reported `reads[k]` dereferences of object `index`.
    fn owner_table(rows: &[(u64, &[u64])]) -> MigrationTable {
        let mut t = MigrationTable::new();
        for &(index, reads) in rows {
            for (k, &n) in reads.iter().enumerate() {
                t.record_affinity(ptr(0, index), 1 + k as u16, n, 0);
            }
        }
        t
    }

    fn four<T: Default>(first: T) -> Vec<T> {
        vec![first, T::default(), T::default(), T::default()]
    }

    fn repl_cfg(budget: usize) -> DpaConfig {
        DpaConfig {
            replication_min_fanout: 3,
            replication_threshold: 12,
            replication_budget: budget,
            ..DpaConfig::dpa_replicating(8)
        }
    }

    /// Promote over node 0's `table` (of four) and return its directory.
    fn promote(cfg: &DpaConfig, table: MigrationTable, dir: ReplicaDirectory) -> ReplicaDirectory {
        let (mut tables, mut dirs) = (four(table), four(dir));
        promote_replicas(cfg, &mut tables, &mut dirs, |_| 7);
        assert!(dirs[1..].iter().all(ReplicaDirectory::is_empty));
        dirs.swap_remove(0)
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
        let dir = promote(&repl_cfg(8), table, ReplicaDirectory::new());
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
        let dir = promote(&repl_cfg(2), table, dir);
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
            let dir = promote(&repl_cfg(room), table.clone(), ReplicaDirectory::new());
            let mut want = order[..room].to_vec();
            want.sort_unstable_by_key(|p| p.bits());
            assert_eq!(dir.ptrs(), want, "budget {room}");
        }
    }

    #[test]
    fn fresh_promotion_is_pinned_against_this_boundarys_rehoming() {
        let cfg = repl_cfg(4);
        let hub = ptr(0, 1);
        // No dominant consumer, yet every one clears the migration bar.
        let n = cfg.migration_threshold + 6;
        let table = owner_table(&[(1, &[n, n, n])]);
        let mut tables = four(table);
        let mut unpinned = tables.clone();
        assert_eq!(
            rehome(&cfg, &mut unpinned, |_| 64),
            vec![hub],
            "the pin is what holds it"
        );

        let mut dirs = vec![ReplicaDirectory::new(); 4];
        promote_replicas(&cfg, &mut tables, &mut dirs, |_| 0);
        assert!(dirs[0].is_replicated(hub) && tables[0].is_pinned(hub));
        assert!(rehome(&cfg, &mut tables, |_| 64).is_empty());
        assert!(!tables[0].is_departed(hub));
    }

    fn carry(migration: Option<MigrationTable>, arrivals: Vec<(GPtr, u32, u32)>) -> PhaseCarry<()> {
        PhaseCarry {
            migration,
            replication: None,
            tables: None,
            arrivals,
            awaiting: Vec::new(),
            deltas: Vec::new(),
        }
    }

    #[test]
    fn deltas_drop_self_served_and_moved_entries_and_keep_the_all_clear() {
        let (adopted, rehomed, changed) = (ptr(0, 5), ptr(0, 6), ptr(2, 1));
        let mut at_one = MigrationTable::new();
        at_one.adopt(adopted, 32);
        let mut carries = vec![
            carry(Some(MigrationTable::new()), Vec::new()),
            // Node 1 adopted `adopted` (now self-served), `rehomed` moved at
            // this boundary, `changed` advanced a generation at its home.
            carry(
                Some(at_one),
                vec![(adopted, 32, 0), (rehomed, 32, 0), (changed, 32, 0)],
            ),
            // Node 2's copy of `adopted` is current — at its *new* home.
            carry(Some(MigrationTable::new()), vec![(adopted, 32, 0)]),
        ];
        let moved: FxHashSet<GPtr> = [rehomed].into_iter().collect();
        plan_deltas(&mut carries, &moved, |home, p| {
            assert_eq!(
                home,
                if p == adopted { 1 } else { p.node() },
                "asked at the current home"
            );
            u32::from(p == changed)
        });
        assert_eq!(carries[1].arrivals, vec![(changed, 32, 0)]);
        assert_eq!(carries[1].awaiting, vec![2]);
        assert_eq!(carries[2].arrivals, vec![(adopted, 32, 0)]);
        assert_eq!(carries[2].awaiting, vec![1]);
        assert!(
            carries[0].deltas.is_empty(),
            "nobody carries anything homed at 0"
        );
        assert_eq!(
            carries[1].deltas,
            vec![(2, Vec::new())],
            "unchanged: the all-clear"
        );
        assert_eq!(carries[2].deltas, vec![(1, vec![changed])]);
    }

    #[test]
    fn delta_fanout_is_sorted_by_consumer_and_each_home_awaited_once() {
        let (a, b, c) = (ptr(3, 1), ptr(3, 2), ptr(0, 9));
        // No migration: homes are the birth nodes. Arrivals come sorted by
        // pointer bits, so `c` (node 0) precedes node 3's objects.
        let held = vec![(c, 8, 0), (a, 8, 0), (b, 8, 0)];
        let mut carries = vec![
            carry(None, vec![(a, 8, 0), (b, 8, 0)]),
            carry(None, held.clone()),
            carry(None, held),
            carry(None, Vec::new()),
        ];
        plan_deltas(&mut carries, &FxHashSet::default(), |_, p| {
            u32::from(p.node() == 3)
        });
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
