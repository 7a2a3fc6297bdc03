//! Edits of committed documents, for the suites that check a reader is
//! total on inputs near the ones it accepts.

// Each integration test binary compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

use proptest::prelude::*;

/// One edit of a document.
#[derive(Debug, Clone)]
pub enum Mutation {
    Flip(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    Truncate(usize),
    /// `.1` copies of ` 18446744073709551615` (`u64::MAX`), the number
    /// past every bound a reader keeps, inserted at `.0`.
    InsertMax(usize, usize),
}

/// A byte flip, insert or delete, or a truncation, at a random position.
pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let at = 0usize..1 << 20;
    prop_oneof![
        (at.clone(), 0u8..=255).prop_map(|(i, b)| Mutation::Flip(i, b)),
        (at.clone(), 0u8..=255).prop_map(|(i, b)| Mutation::Insert(i, b)),
        at.clone().prop_map(Mutation::Delete),
        at.prop_map(Mutation::Truncate),
    ]
}

/// [`arb_mutation`], or a run of `u64::MAX` inserted at a random
/// position.
pub fn arb_text_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        4 => arb_mutation(),
        1 => (0usize..1 << 20, 1usize..4).prop_map(|(i, n)| Mutation::InsertMax(i, n)),
    ]
}

/// `bytes` with every mutation applied in order; positions wrap around
/// the current length.
pub fn mutate(mut bytes: Vec<u8>, mutations: &[Mutation]) -> Vec<u8> {
    for m in mutations {
        let len = bytes.len();
        match *m {
            Mutation::Flip(i, b) if len > 0 => bytes[i % len] ^= b.max(1),
            Mutation::Insert(i, b) => bytes.insert(i % (len + 1), b),
            Mutation::Delete(i) if len > 0 => {
                bytes.remove(i % len);
            }
            Mutation::Truncate(i) => bytes.truncate(i % (len + 1)),
            Mutation::InsertMax(i, n) => {
                let at = i % (len + 1);
                let run = " 18446744073709551615".repeat(n);
                bytes.splice(at..at, run.into_bytes());
            }
            _ => {}
        }
    }
    bytes
}
