//! Field storage for the FMM evaluation sub-phases, sized by what a node
//! owns.
//!
//! A node evaluates fields only at the particles of its own leaves
//! (owner-computes), so its eval app keeps one slot per owned particle.
//! Where each particle's slot is, and on which node, is one table per
//! world ([`ParticleSlots`], 6 B a particle), built once at set-up and
//! shared by every node's [`OwnedFields`].

use nbody::cx::Cx;
use std::sync::Arc;

/// Every particle's owner node and its slot there: the particle's rank
/// among its owner's particles in leaf order.
pub struct ParticleSlots {
    owner: Vec<u16>,
    slot: Vec<u32>,
    /// Particles per node.
    owned: Vec<u32>,
}

impl ParticleSlots {
    /// The table for `particles` particles on `nodes` nodes. `leaves`
    /// yields each leaf's owner and particle ids, in leaf order; every
    /// particle must appear in exactly one leaf.
    pub(crate) fn new<'a>(
        particles: usize,
        nodes: u16,
        leaves: impl IntoIterator<Item = (u16, &'a [u32])>,
    ) -> ParticleSlots {
        let mut owner = vec![u16::MAX; particles];
        let mut slot = vec![0u32; particles];
        let mut owned = vec![0u32; nodes as usize];
        for (node, ids) in leaves {
            for &i in ids {
                debug_assert_eq!(owner[i as usize], u16::MAX, "particle {i} in two leaves");
                owner[i as usize] = node;
                slot[i as usize] = owned[node as usize];
                owned[node as usize] += 1;
            }
        }
        debug_assert!(owner.iter().all(|&o| o < nodes), "a particle in no leaf");
        ParticleSlots { owner, slot, owned }
    }

    /// The node that owns particle `i`.
    #[inline]
    pub fn owner(&self, i: u32) -> u16 {
        self.owner[i as usize]
    }

    /// Particle `i`'s slot on its owner.
    #[inline]
    pub fn slot(&self, i: u32) -> u32 {
        self.slot[i as usize]
    }

    /// How many particles `node` owns.
    pub fn owned(&self, node: u16) -> usize {
        self.owned[node as usize] as usize
    }
}

/// One node's computed fields: a slot per owned particle, zero until the
/// evaluation adds into it.
pub struct OwnedFields {
    slots: Arc<ParticleSlots>,
    me: u16,
    vals: Vec<Cx>,
}

impl OwnedFields {
    /// Zeroed fields for the particles `me` owns.
    pub(crate) fn new(slots: Arc<ParticleSlots>, me: u16) -> OwnedFields {
        let vals = vec![Cx::ZERO; slots.owned(me)];
        OwnedFields { slots, me, vals }
    }

    /// The field of particle `i`, which this node must own.
    #[inline]
    pub(crate) fn at_mut(&mut self, i: u32) -> &mut Cx {
        debug_assert_eq!(
            self.slots.owner(i),
            self.me,
            "particle {i} is not owned here"
        );
        &mut self.vals[self.slots.slot(i) as usize]
    }

    /// The dense view: one field per particle of the machine, in global-id
    /// order, zero where another node owns the particle. Named for how
    /// the phase drivers (and the benchmark of record, which cannot
    /// change) read a finished node's fields: `app.fields.iter()`.
    pub fn iter(&self) -> impl Iterator<Item = &Cx> + '_ {
        let t = &*self.slots;
        t.owner.iter().zip(&t.slot).map(move |(&o, &s)| {
            if o == self.me {
                &self.vals[s as usize]
            } else {
                &Cx::ZERO
            }
        })
    }
}
