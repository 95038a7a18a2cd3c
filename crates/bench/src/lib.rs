//! Shared support for the `repro` binary, the criterion benches, `perfbench`
//! and the workspace tests: reproducible workload generators and the seed
//! featurization oracle.

pub mod seed_reference;
pub mod workload;
