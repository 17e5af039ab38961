//! Seeded-violation fixture for the `lcf-lint` self-test.
//!
//! This file is never compiled; it exists so `cargo run -p lcf-lint -- --self-test`
//! (and `cargo run -p lcf-lint -- crates/lint/fixtures/seeded.rs`, which must
//! exit non-zero) can prove every rule family actually fires — and that the
//! tagged/gated negative cases do not. It deliberately lacks
//! `#![forbid(unsafe_code)]` to trip the forbid-unsafe rule.

use std::collections::HashMap; // trips hash-collections
use std::time::Instant; // trips wall-clock

/// Trips no-panic (unwrap and panic!) and truncating-cast.
pub fn seeded(port: usize, m: &HashMap<usize, usize>) -> u8 {
    let _t = Instant::now();
    if port > 255 {
        panic!("port out of range");
    }
    let _narrow = *m.get(&port).unwrap() as u32;
    // lint:allow(truncating-cast): fixture demonstrates a correctly justified tag
    let allowed = port as u16;
    (allowed & 0xFF) as u8
}

/// Trips hot-path-alloc directly (per-slot allocation in a hot fn body).
pub fn schedule_into(requests: &[bool], out: &mut Vec<usize>) {
    let scratch = vec![0usize; requests.len()];
    out.extend(scratch);
    hidden_helper(out);
}

/// Trips call-graph hot-path-alloc: the allocation is hidden one call
/// below the hot `schedule_into` root.
fn hidden_helper(out: &mut Vec<usize>) {
    let spill = Vec::with_capacity(out.len());
    out.extend(spill);
}

/// Trips rng-stream: the destination draw happens only when the gate
/// draw comes up true, so the keystream position depends on data.
pub fn seeded_arrival(rng: &mut SimRng, n: usize, active: bool) -> Option<usize> {
    if active {
        Some(rng.gen_range(0..n))
    } else {
        None
    }
}

/// Does NOT trip rng-stream: same shape, but the draw-count contract is
/// documented with a fn-scoped tag.
// lint:allow(rng-stream): draws 1 gate word per slot + 1 dest word per arrival
pub fn contracted_arrival(rng: &mut SimRng, n: usize) -> Option<usize> {
    if rng.gen_bool(0.5) {
        Some(rng.gen_range(0..n))
    } else {
        None
    }
}
