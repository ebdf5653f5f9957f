//! The factorlog benchmark: four workloads, best-twentieth timing, a traced run
//! that resolves each workload by layer. `README.md` is the manual.

pub mod affinity;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod selfcheck;
pub mod timing;
pub mod trace;
pub mod wire;
pub mod workloads;
