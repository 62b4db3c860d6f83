//! An end-to-end benchmark of the STUC engine and server, with an
//! outside-in per-layer trace. See `README.md` in this directory.

pub mod inputs;
pub mod layers;
pub mod report;
pub mod speed;
pub mod sys;
pub mod trace;
pub mod workloads;
