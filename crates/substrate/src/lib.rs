//! The workspace's foundation crate: everything the rest of the system would
//! otherwise pull from crates.io, implemented from scratch with **zero
//! dependencies** so the workspace builds, tests, and benches offline and
//! deterministically.
//!
//! Modules:
//!
//! * [`rng`] — splitmix64-seeded xoshiro256** generator behind a small
//!   [`rng::Rng`] trait (`random`, `random_range`, `fill_bytes`, `shuffle`);
//!   a drop-in for the previous `rand` usage.
//! * [`ser`] — an explicit, proc-macro-free serialization story: a
//!   [`ser::JsonValue`] tree with an emitter *and* parser, and a
//!   [`ser::ToJson`] trait implemented manually on config, message, and
//!   metric types.
//! * [`sync`] — a poison-free `Mutex`, a bounded mpsc channel and named
//!   thread spawning over `std::sync` (the `parking_lot`/`crossbeam`
//!   stand-in).
//! * [`check`] — a seeded property-testing harness: [`check::Gen`]
//!   generators, the [`forall!`] macro, failing-seed reports, and
//!   `CHECK_SEED=<seed>` single-case replay.
//! * [`benchkit`] — warmup/iteration timing with median/p95 statistics and
//!   JSON output, replacing criterion for the micro-benchmarks.
//! * [`storage`] — a checksummed append-only WAL and atomic snapshots over
//!   a pluggable [`storage::Disk`] (in-memory under the simulator, real
//!   fsync'd files under the threaded runtime).
//!
//! What std already provides is used under its std name: ordered maps and
//! sets are `std::collections::{BTreeMap, BTreeSet}` (clippy's
//! `disallowed_types`, configured in the root `clippy.toml`, refuses
//! `HashMap`/`HashSet`, whose `RandomState` seeding breaks seed replay), an
//! encode buffer is a `Vec<u8>` and a decode cursor a `&[u8]`.
//!
//! Determinism is the design center: the same seed always produces the same
//! byte stream, the same property-test cases, and the same simulated
//! schedules, on every host, forever.

// No module here needs `unsafe` (sync wraps std primitives), and the
// workspace forbids it too: no `#[allow]` can lift a forbid.
#![forbid(unsafe_code)]

pub mod benchkit;
pub mod check;
pub mod rng;
pub mod ser;
pub mod storage;
pub mod sync;
