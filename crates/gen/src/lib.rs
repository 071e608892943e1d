//! # dise-gen — scenario generation and the ground-truth differential harness
//!
//! Every cache layer in this workspace (incremental solver, persistent
//! store, procedure summaries, staged sessions) promises the same thing:
//! *warm state moves solver work around, it never changes results*. Until
//! this crate, those contracts were validated against four hand-written
//! paper artifacts. `dise-gen` turns each contract into a property checked
//! over arbitrarily many generated programs:
//!
//! * [`Scenario::generate`] emits parameterized WBS/OAE-style state-machine
//!   programs — a mode-dispatched guard lattice over shared output
//!   registers, with a helper call graph of configurable width and depth so
//!   procedure summaries see real fan-in ([`GenParams`]);
//! * [`evolve`] applies randomized evolution edits (guard
//!   strengthening/weakening, effect rewrites, dead-branch insertion,
//!   callee-body edits) while tracking the edited sites' **marker
//!   constants** — globally unique integer literals embedded in every
//!   editable statement — as machine-checkable ground truth;
//! * [`check_pair`] runs the full differential harness on one
//!   `(base, modified)` pair: ground-truth coverage of the affected sets,
//!   byte-identical directed verdicts across `jobs ∈ {1, 4}`, summaries-on
//!   ≡ summaries-off full exploration, and warm-store rerun ≡ cold run.
//!
//! ## Why marker constants?
//!
//! The inliner lays flattened programs out afresh, so source spans do not
//! survive flattening and cannot anchor ground truth. A
//! marker literal does: it rides inside the statement's expression through
//! inlining (once per inlined copy of a callee), and
//! [`nodes_with_marker`] recovers exactly the CFG nodes of the edited
//! statement in the flattened modified version.
//!
//! The soundness argument (why `ground truth ⊆ ACN ∪ AWN` is a real
//! theorem about the pipeline, not a tautology of the generator) is spelled
//! out in ARCHITECTURE.md's "Generated corpus" section.
//!
//! # Examples
//!
//! ```
//! use dise_gen::{check_pair, evolve, GenParams, Scenario};
//!
//! let base = Scenario::generate(&GenParams {
//!     seed: 7,
//!     ..GenParams::default()
//! });
//! let evolution = evolve(&base, 7, 2);
//! assert_eq!(evolution.edits.len(), 2);
//! let report = check_pair(&base, &evolution).expect("all three checks hold");
//! assert!(report.ground_truth_nodes > 0);
//! ```

pub mod edits;
pub mod harness;
pub mod scenario;

pub use edits::{evolve, AppliedEdit, EditKind, Evolution};
pub use harness::{check_pair, nodes_with_marker, render_verdicts, HarnessFailure, HarnessReport};
pub use scenario::{GenParams, Scenario, PROC_NAME};

/// Deterministic splitmix64 generator — the same construction the
/// workspace's other deterministic streams use.
#[derive(Debug, Clone)]
pub(crate) struct Rng {
    state: u64,
}

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound > 0`).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..16 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(1);
        for _ in 0..64 {
            assert!(rng.below(7) < 7);
        }
    }
}
