//! Umbrella crate for the Madeleine reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency root.
pub use mad_shm;
pub use mad_sim;
pub use mad_tcp;
pub use madeleine;
pub use simnet;
pub use vtime;
