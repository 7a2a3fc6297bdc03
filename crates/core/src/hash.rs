//! A small multiplicative hasher for maps keyed by a few integers.
//!
//! The workspace's hash maps are keyed by short runs of small integers:
//! normalized table patterns in [`crate::compiled`] and value-numbering
//! keys in the optimizer. SipHash, the standard library's default, hashes
//! such keys several times slower than one multiply per word, and its
//! resistance to chosen keys buys nothing here: the keys come from the
//! table or network being processed, so colliding keys could only slow
//! the work on the artifact that carries them.
//!
//! ```
//! use st_core::hash::FxHashMap;
//!
//! let mut rows: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
//! rows.insert(vec![0, 3], 7);
//! assert_eq!(rows.get(&vec![0, 3]), Some(&7));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's FxHash: each word is mixed in with a rotate, an xor and one
/// multiply.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

/// Builds an [`FxHasher`] per hash.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
