//! Pauli-operator algebra and GF(2) linear algebra.
//!
//! This crate is the lowest-level substrate of the Surf-Deformer workspace.
//! It provides:
//!
//! * [`Pauli`] — the single-qubit Pauli group modulo phase (`I`, `X`, `Y`, `Z`).
//! * [`PauliString`] — a sparse multi-qubit Pauli operator over arbitrary
//!   qubit identifiers, with multiplication, commutation tests and support
//!   queries sufficient for stabilizer bookkeeping.
//! * [`BitVec`] — a bit-packed boolean vector used by the dense tableau
//!   simulator in `surf-stabilizer`.
//! * [`BitBatch`] — the transposed batch layout (one `u64` word = 64 shots
//!   per qubit/detector) behind the batch sampler and round streams in
//!   `surf-sim`.
//! * [`gf2`] — Gaussian elimination, rank, solving, and span membership over
//!   GF(2), used for logical-operator rerouting and code validity checks.
//!
//! # Example
//!
//! ```
//! use surf_pauli::{Pauli, PauliString};
//!
//! let zz = PauliString::from_pairs([(0, Pauli::Z), (1, Pauli::Z)]);
//! let xx = PauliString::from_pairs([(0, Pauli::X), (1, Pauli::X)]);
//! assert!(zz.commutes_with(&xx)); // overlap on two anti-commuting sites
//! let x0 = PauliString::from_pairs([(0, Pauli::X)]);
//! assert!(!zz.commutes_with(&x0));
//! ```

mod bitbatch;
mod bitvec;
pub mod gf2;
mod pauli;
mod string;

pub use bitbatch::BitBatch;
pub use bitvec::BitVec;
pub use pauli::Pauli;
pub use string::PauliString;
