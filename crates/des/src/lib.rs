//! `san-des` — the event scheduler for the SAN reproduction.
//!
//! This crate sits *below* `san-sim` and holds the event scheduler every
//! layer above runs on:
//!
//! * [`wheel::TimingWheel`] — hierarchical timing wheel / calendar queue with
//!   an overflow tier for far-future timers. O(1) schedule and near-O(1) fire
//!   close to the horizon, with pop order *identical* to a binary heap keyed
//!   on `(time, insertion sequence)` — the determinism contract of the repo.
//! * [`heap::HeapQueue`] — the original `BinaryHeap` scheduler. Nothing runs
//!   on it: it is the reference the wheel proptests compare against.
//!
//! Everything here is plain `std`; determinism is the design constraint that
//! shapes each structure, and each module documents the ordering invariant it
//! preserves.

pub mod heap;
pub mod wheel;
