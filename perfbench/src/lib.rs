//! The repository benchmark: three traffic mixes through the
//! Lauberhorn, bypass and kernel stacks, measuring the simulator's own
//! cost per simulated request and the modeled latency, with a separate
//! traced run that splits the cost by layer. See `README.md`.

pub mod alloc;
pub mod bench;
pub mod blame;
pub mod timed;
