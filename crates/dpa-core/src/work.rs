//! The non-blocking thread abstraction shared by the DPA runtime and the
//! baseline drivers.
//!
//! The compiler half of DPA decomposes a computation into *non-blocking
//! threads*: units that run to completion without suspension, touching at
//! most one potentially-remote object — the one they were created for.
//! [`PtrApp`] is the runtime's view of such a decomposition: an application
//! provides top-level loop iterations, each of which unfolds into work
//! items; a work item may emit purely-local continuations and *demands*,
//! i.e. new work items labeled with the global pointer they will read.
//!
//! The same decomposition runs under every execution variant (DPA,
//! caching, blocking, sequential), which is what guarantees all variants
//! compute identical results — only scheduling and communication differ.

use global_heap::{ArrivalSet, GPtr, MigrationTable, SoftCache};

/// A deterministic per-object *generation* schedule for multi-timestep
/// (differential) runs: which objects mutate at which phase.
///
/// The simulated worlds are immutable, so "the object changed between
/// timesteps" is modeled as a pure function of `(object, phase, seed)`:
/// at each phase boundary, roughly `change_permille`/1000 of all objects
/// are selected (by a seeded hash) to bump their generation. An object's
/// generation at phase `t` is the number of boundaries `1..=t` that
/// selected it — exactly what [`PtrApp::object_generation`] reports, and
/// what the differential driver diffs at each barrier to decide which
/// carried cache entries to invalidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiffPlan {
    /// Seed of the change schedule (shared by every node and phase).
    pub seed: u64,
    /// Per-boundary change probability, in permille (0..=1000).
    pub change_permille: u32,
    /// The phase this app instance executes (0 = first timestep).
    pub phase: u32,
}

impl DiffPlan {
    /// `true` if boundary `boundary` (1-based) mutates `ptr`.
    #[inline]
    fn changes(&self, ptr: GPtr, boundary: u32) -> bool {
        let mut z = ptr
            .bits()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed)
            .wrapping_add(boundary as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 1000) < self.change_permille as u64
    }

    /// Generation of `ptr` at this plan's phase: the number of boundaries
    /// `1..=phase` whose seeded selection includes it. Phase counts are a
    /// handful in practice, so the linear scan is free.
    pub fn gen_of(&self, ptr: GPtr) -> u32 {
        (1..=self.phase).filter(|&b| self.changes(ptr, b)).count() as u32
    }

    /// The same plan advanced to `phase`.
    pub fn at_phase(self, phase: u32) -> DiffPlan {
        DiffPlan { phase, ..self }
    }

    /// Order-independent digest contribution of *reading* `ptr` at
    /// generation `gen`. Value-sensitive applications fold this into their
    /// checksums (wrapping add, so arrival order cannot matter); because
    /// the contribution depends on the generation actually read, a stale
    /// carried cache entry — one whose stamp lags the object's current
    /// generation — produces a digest that differs from a from-scratch
    /// run. That is the observable the differential equivalence matrix
    /// checks.
    #[inline]
    pub fn stamp(ptr: GPtr, gen: u32) -> u64 {
        let mut z = ptr.bits() ^ ((gen as u64) << 33) ^ 0xA076_1D64_78BD_642F;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a running work item emits for later execution.
#[derive(Debug)]
pub enum Emit<W> {
    /// A continuation that touches no new potentially-remote object.
    Local(W),
    /// A dependent thread labeled with the pointer it will read. The
    /// runtime routes it: run now if the object is local or already
    /// arrived, otherwise align it under the pointer in M.
    Demand(GPtr, W),
    /// A remote reduction: fold `f64` into the object at `GPtr`
    /// (commutative-associative). Local targets apply immediately; remote
    /// targets are batched by the communication scheduler.
    Accum(GPtr, f64),
}

/// Availability view used for the honesty check: which remote objects may
/// be read right now.
pub(crate) enum Avail<'a> {
    /// Everything readable (used by logic-only tests).
    #[cfg_attr(not(test), allow(dead_code))]
    All,
    /// DPA renamed storage.
    Arrived(&'a ArrivalSet),
    /// Caching baseline's cache contents.
    Cached(&'a SoftCache),
}

/// Execution environment handed to [`PtrApp::run_work`] /
/// [`PtrApp::start_iteration`].
///
/// The application charges its useful computation through
/// [`WorkEnv::charge`] and emits follow-on work through
/// [`WorkEnv::local`] / [`WorkEnv::demand`]. Reads of object payloads go
/// straight to the application's own arenas (single host address space);
/// [`WorkEnv::assert_readable`] enforces, in debug builds, that no object
/// is read before the simulated machine has actually delivered it.
pub struct WorkEnv<'a, W> {
    node: u16,
    nodes: u16,
    charged_ns: u64,
    emits: Vec<Emit<W>>,
    avail: Avail<'a>,
    /// Migration view (when enabled): objects born here that have departed
    /// are *not* readable locally any more, and adopted objects are.
    mig: Option<&'a MigrationTable>,
    /// What renamed storage held for the running thread's label when the
    /// thread became ready ([`Tagged::gen`]); `NO_GEN` for creation code.
    label_gen: u32,
}

impl<'a, W> WorkEnv<'a, W> {
    pub(crate) fn new(node: u16, nodes: u16, avail: Avail<'a>) -> WorkEnv<'a, W> {
        WorkEnv {
            node,
            nodes,
            charged_ns: 0,
            emits: Vec::new(),
            avail,
            mig: None,
            label_gen: NO_GEN,
        }
    }

    /// Like [`WorkEnv::new`] but honoring a migration table in the
    /// readability check (used by the DPA driver when migration is on).
    pub(crate) fn with_migration(
        node: u16,
        nodes: u16,
        avail: Avail<'a>,
        mig: Option<&'a MigrationTable>,
    ) -> WorkEnv<'a, W> {
        WorkEnv {
            mig,
            ..WorkEnv::new(node, nodes, avail)
        }
    }

    /// The env of a ready thread: the generation its label was resolved to
    /// rides in with it.
    pub(crate) fn labeled(mut self, gen: u32) -> WorkEnv<'a, W> {
        self.label_gen = gen;
        self
    }

    /// Adopt a recycled (empty, capacity-bearing) emission buffer so a
    /// steady-state work item emits without touching the allocator. The
    /// driver threads one scratch buffer through every env it builds.
    pub(crate) fn reuse_buffer(&mut self, buf: Vec<Emit<W>>) {
        debug_assert!(buf.is_empty(), "recycled emit buffer must be drained");
        self.emits = buf;
    }

    /// The node this work runs on.
    #[inline]
    pub fn me(&self) -> u16 {
        self.node
    }

    /// Number of nodes in the machine.
    #[inline]
    pub fn num_nodes(&self) -> u16 {
        self.nodes
    }

    /// Charge `ns` of useful local computation.
    #[inline]
    pub fn charge(&mut self, ns: u64) {
        self.charged_ns += ns;
    }

    /// Emit a purely-local continuation (no new remote object touched).
    #[inline]
    pub fn local(&mut self, w: W) {
        self.emits.push(Emit::Local(w));
    }

    /// Emit a dependent thread labeled with the pointer it will read.
    /// `ptr` may be local or remote; the runtime routes it.
    #[inline]
    pub fn demand(&mut self, ptr: GPtr, w: W) {
        debug_assert!(!ptr.is_null(), "demand on null pointer");
        self.emits.push(Emit::Demand(ptr, w));
    }

    /// Emit a remote reduction: fold `value` into the object at `ptr` via
    /// [`PtrApp::apply_update`] on the owner. Reductions are
    /// commutative-associative, so the runtime may batch and reorder them
    /// freely; they are guaranteed applied by the end of the phase.
    #[inline]
    pub fn accumulate(&mut self, ptr: GPtr, value: f64) {
        debug_assert!(!ptr.is_null(), "accumulate on null pointer");
        self.emits.push(Emit::Accum(ptr, value));
    }

    /// `true` if `ptr`'s payload may be read right now on this node.
    pub fn readable(&self, ptr: GPtr) -> bool {
        if ptr.is_local_to(self.node) {
            // Born here — readable unless the object was migrated away
            // (its payload now lives at the adoptee; reading the departed
            // slot would be a stale read).
            if !self.mig.is_some_and(|m| m.is_departed(ptr)) {
                return true;
            }
        } else if self.mig.is_some_and(|m| m.is_adopted(ptr)) {
            return true;
        }
        match &self.avail {
            Avail::All => true,
            Avail::Arrived(a) => a.contains(ptr),
            Avail::Cached(c) => c.contains(ptr),
        }
    }

    /// The generation stamp renamed storage holds for the object this
    /// thread was labeled with — the copy it fetched, or carried across a
    /// phase barrier — or `None` when the label is not in renamed storage:
    /// locally-owned objects, creation code and the non-DPA availability
    /// views land here, and the application should fall back to its own
    /// current generation. A value-sensitive application folds this into
    /// its checksum, which is what makes a stale carried entry
    /// *observable*: a cache entry that survived a value change reports
    /// the old generation and corrupts the digest against a from-scratch
    /// run.
    ///
    /// The runtime resolved the label once, when the thread became ready
    /// (demanded with the object already here, or released when it
    /// arrived), and the answer travelled with the thread; nothing is
    /// probed here.
    #[inline]
    pub fn label_generation(&self) -> Option<u32> {
        (self.label_gen != NO_GEN).then_some(self.label_gen)
    }

    /// Debug-build honesty check: panic if `ptr` has not been delivered,
    /// or if renamed storage holds it at another generation than the one
    /// this thread carries for it (a thread touches one potentially-remote
    /// object, its label, so a held `ptr` *is* the label). Release builds
    /// compile this to nothing.
    #[inline]
    pub fn assert_readable(&self, ptr: GPtr) {
        debug_assert!(
            self.readable(ptr),
            "node {} read object {ptr} before it arrived",
            self.node
        );
        #[cfg(debug_assertions)]
        if let (Some(carried), Avail::Arrived(a)) = (self.label_generation(), &self.avail) {
            if let Some(held) = a.generation(ptr) {
                assert_eq!(
                    carried, held,
                    "node {}: the generation carried for {ptr} is not the one held",
                    self.node
                );
            }
        }
    }

    pub(crate) fn finish(self) -> (u64, Vec<Emit<W>>) {
        (self.charged_ns, self.emits)
    }
}

/// An application decomposed into pointer-labeled non-blocking threads.
///
/// One instance exists per simulated node; shared read-only world state
/// (the tree, the bodies) typically lives behind an `Arc` inside the
/// implementor.
///
/// Apps (and their thread states) are `Send`: the parallel simulation
/// engine (`sim_net::Machine::run_parallel`) moves each node's proc — app
/// and queued work included — onto a worker thread. Nothing is ever
/// *shared* mutably across threads (each node stays on one worker), so
/// `Sync` is not required.
pub trait PtrApp: Send {
    /// The state of one non-blocking thread.
    type Work: Send;

    /// Length of this node's top-level concurrent loop (e.g. the number of
    /// locally-owned bodies whose forces this node computes).
    fn num_iterations(&self) -> usize;

    /// Emit the initial work of iteration `iter`.
    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, Self::Work>);

    /// Run one non-blocking thread to completion.
    fn run_work(&mut self, work: Self::Work, env: &mut WorkEnv<'_, Self::Work>);

    /// Transfer size in bytes of the object `ptr` points to.
    fn object_size(&self, ptr: GPtr) -> u32;

    /// Approximate bytes of saved state per suspended thread (for the
    /// memory column of the thread-statistics table).
    fn work_state_bytes(&self) -> u32 {
        std::mem::size_of::<Self::Work>() as u32 + 8
    }

    /// Apply a remote reduction to a locally-owned object (the owner-side
    /// handler for [`WorkEnv::accumulate`]). Applications that never
    /// accumulate need not implement it.
    fn apply_update(&mut self, ptr: GPtr, value: f64) {
        let _ = value;
        panic!("application does not support remote updates (target {ptr})");
    }

    /// Current generation of the object `ptr` points to, for differential
    /// (multi-timestep) runs: the runtime stamps fetched objects with this
    /// value and the differential driver re-fetches only objects whose
    /// generation moved between phases. Single-phase applications keep the
    /// default constant `0` — every carried entry then validates and the
    /// differential machinery degenerates to a pure carry.
    fn object_generation(&self, ptr: GPtr) -> u32 {
        let _ = ptr;
        0
    }
}

/// [`Tagged::gen`] of a thread whose label is not in renamed storage. No
/// object reaches this generation: one is gained per phase boundary.
pub(crate) const NO_GEN: u32 = u32::MAX;

/// A ready work item tagged with the top-level iteration it belongs to, so
/// the strip driver can track iteration completion, and with what its
/// label resolved to, so running it probes nothing.
#[derive(Debug)]
pub struct Tagged<W> {
    /// Index of the owning top-level iteration.
    pub iter: u32,
    /// The generation renamed storage holds for the thread's label
    /// ([`WorkEnv::label_generation`]), `NO_GEN` if it holds none: written
    /// when the thread becomes ready — demanded with its object already
    /// here, or released from M by the copy that arrived.
    pub(crate) gen: u32,
    /// The work itself.
    pub work: W,
}

#[cfg(test)]
mod tests {
    use super::*;
    use global_heap::ObjClass;

    #[test]
    fn env_collects_charges_and_emits() {
        let mut env: WorkEnv<'_, u32> = WorkEnv::new(0, 4, Avail::All);
        env.charge(100);
        env.charge(20);
        env.local(7);
        env.demand(GPtr::new(1, ObjClass(0), 5), 8);
        assert_eq!(env.me(), 0);
        assert_eq!(env.num_nodes(), 4);
        let (ns, emits) = env.finish();
        assert_eq!(ns, 120);
        assert_eq!(emits.len(), 2);
        assert!(matches!(emits[0], Emit::Local(7)));
        assert!(matches!(emits[1], Emit::Demand(_, 8)));
    }

    #[test]
    fn readable_local_always() {
        let env: WorkEnv<'_, u32> = WorkEnv::new(2, 4, Avail::All);
        assert!(env.readable(GPtr::new(2, ObjClass(0), 1)));
        assert!(env.readable(GPtr::new(3, ObjClass(0), 1)));
    }

    #[test]
    fn readable_respects_arrival_set() {
        let mut arr = ArrivalSet::new();
        let remote = GPtr::new(1, ObjClass(0), 9);
        {
            let env: WorkEnv<'_, u32> = WorkEnv::new(0, 2, Avail::Arrived(&arr));
            assert!(!env.readable(remote));
        }
        arr.insert(remote, 64);
        let env: WorkEnv<'_, u32> = WorkEnv::new(0, 2, Avail::Arrived(&arr));
        assert!(env.readable(remote));
        // own objects always readable
        assert!(env.readable(GPtr::new(0, ObjClass(0), 3)));
    }

    #[test]
    fn label_generation_is_what_the_thread_carried() {
        let arr = ArrivalSet::new();
        let env: WorkEnv<'_, u32> = WorkEnv::new(0, 2, Avail::Arrived(&arr));
        assert_eq!(env.label_generation(), None, "creation code has no label");
        assert_eq!(env.labeled(NO_GEN).label_generation(), None);
        let env: WorkEnv<'_, u32> = WorkEnv::new(0, 2, Avail::Arrived(&arr)).labeled(0);
        assert_eq!(env.label_generation(), Some(0));
    }

    /// The debug honesty check covers the carried generation: a thread
    /// that was handed one stamp while renamed storage holds another has
    /// been routed wrongly.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not the one held")]
    fn assert_readable_catches_a_carried_generation_that_went_stale() {
        let mut arr = ArrivalSet::new();
        let remote = GPtr::new(1, ObjClass(0), 9);
        arr.insert_gen(remote, 64, 4);
        let env: WorkEnv<'_, u32> = WorkEnv::new(0, 2, Avail::Arrived(&arr)).labeled(3);
        env.assert_readable(remote);
    }

    #[test]
    fn readable_honors_migration_table() {
        let mut mig = MigrationTable::new();
        let departed = GPtr::new(0, ObjClass(0), 1);
        let adopted = GPtr::new(1, ObjClass(0), 2);
        mig.depart(departed, 1);
        mig.adopt(adopted, 64);
        let arr = ArrivalSet::new();
        let env: WorkEnv<'_, u32> = WorkEnv::with_migration(0, 2, Avail::Arrived(&arr), Some(&mig));
        assert!(
            !env.readable(departed),
            "a departed object is no longer readable at its birth home"
        );
        assert!(env.readable(adopted), "an adopted object reads locally");
        assert!(
            env.readable(GPtr::new(0, ObjClass(0), 9)),
            "untouched local"
        );
        assert!(
            !env.readable(GPtr::new(1, ObjClass(0), 9)),
            "untouched remote"
        );
    }

    #[test]
    fn readable_respects_cache() {
        let mut cache = SoftCache::new(None);
        let remote = GPtr::new(1, ObjClass(0), 9);
        cache.fill(remote, 64);
        let env: WorkEnv<'_, u32> = WorkEnv::new(0, 2, Avail::Cached(&cache));
        assert!(env.readable(remote));
        assert!(!env.readable(GPtr::new(1, ObjClass(0), 10)));
    }
}
