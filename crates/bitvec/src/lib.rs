//! # ibis-bitvec
//!
//! Bit-vector substrate for the bitmap indexes of *"Indexing Incomplete
//! Databases"* (EDBT 2006):
//!
//! * [`BitVec64`] — a plain, uncompressed bit vector with word-parallel
//!   logical operations;
//! * [`Wah`] — the Word-Aligned Hybrid code (Wu, Otoo, Shoshani), the
//!   compression the paper uses (§4.4): 32-bit words, literal/fill
//!   encoding, **logical operations executed directly on the compressed
//!   form** producing compressed results;
//! * [`Bbc`] — a byte-aligned bitmap code in the spirit of Antoshenkov's
//!   BBC (the paper's future-work compression), likewise with
//!   compressed-form operations;
//! * [`Adaptive`] — a Roaring-style adaptive container backend: each
//!   2^16-bit chunk is stored as a sorted position array, a raw bitmap, or
//!   a run list — whichever is smallest — with container-vs-container
//!   AND/OR kernels and exact per-container work accounting;
//! * [`kernel`] — the lane-unrolled word kernels (u64×8 with a portable
//!   scalar fallback selected at build time) behind every bulk bitwise loop
//!   in the crate;
//! * [`BitStore`] — the trait the bitmap indexes are generic over, so every
//!   index can be instantiated with any backend (the ablation benches sweep
//!   all of them); [`BitStore::tally`] measures the words (and adaptive
//!   containers) an operation reads into an [`OpTally`].
//!
//! All stores agree bit-for-bit with each other; property tests in each
//! module exercise that equivalence on random inputs.
//!
//! ```
//! use ibis_bitvec::{BitStore, BitVec64, Wah};
//!
//! // A sparse million-bit bitmap compresses to a handful of WAH words…
//! let plain = BitVec64::from_ones(1_000_000, [3u32, 500_000]);
//! let wah = Wah::encode(&plain);
//! assert!(wah.size_bytes() < 40);
//!
//! // …and logical operations stay on the compressed form.
//! let other = Wah::encode(&BitVec64::from_ones(1_000_000, [3u32, 9]));
//! let both = wah.and(&other);
//! assert_eq!(both.ones_positions(), vec![3]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod bbc;
mod bitvec64;
pub mod io;
pub mod kernel;
mod store;
mod wah;

pub use adaptive::{Adaptive, ContainerKind, ARRAY_MAX, CHUNK_BITS};
pub use bbc::Bbc;
pub use bitvec64::BitVec64;
pub use store::{BitStore, OpTally};
pub use wah::{Wah, WahStats};
