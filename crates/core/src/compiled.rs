//! Compile-once lookup form of a [`FunctionTable`] for evaluate-many
//! workloads.
//!
//! [`FunctionTable::eval`] scans every row per input volley — O(rows ×
//! arity) per evaluation, where enumerated tables over a window `w` hold
//! on the order of `(w + 2)^arity` rows. Batched workloads (the
//! `spacetime::batch` engine, parameter sweeps, serving) evaluate one
//! table against thousands of volleys, so the row scan dominates.
//!
//! [`CompiledTable`] hoists that work out of the hot path: rows are
//! indexed once by their *finite-support mask* (which positions hold
//! finite entries) and, per mask, by the normalized finite values. An
//! evaluation then probes one hash map per distinct mask instead of
//! walking every row. The semantics are exactly those of
//! [`FunctionTable::eval`] (Theorem-1 matching: earliest output among
//! matching rows, with causal `∞`-entry extension) — the equivalence is
//! enforced by exhaustive unit tests here and by the cross-engine
//! property suite.

use crate::error::CoreError;
use crate::hash::FxHashMap;
use crate::table::FunctionTable;
use crate::time::Time;

/// Rows sharing one finite-support mask, indexed by normalized values.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MaskGroup {
    /// Bit `i` set ⇔ position `i` is finite in these rows' patterns.
    mask: u64,
    /// The set bits of `mask`, in ascending position order.
    positions: Vec<usize>,
    /// Normalized finite values (in `positions` order) → row output.
    rows: FxHashMap<Vec<u64>, Time>,
}

/// A [`FunctionTable`] preprocessed for evaluate-many workloads.
///
/// Built with [`FunctionTable::compile`]; immutable and cheap to share
/// across threads.
///
/// # Examples
///
/// ```
/// use st_core::{FunctionTable, Time};
///
/// let table = FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n")?;
/// let compiled = table.compile();
/// let t = Time::finite;
/// // Same value as the paper's worked example through `eval`.
/// assert_eq!(compiled.eval(&[t(3), t(4), t(5)])?, t(6));
/// assert_eq!(compiled.eval(&[t(3), t(4), t(5)])?, table.eval(&[t(3), t(4), t(5)])?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTable {
    arity: usize,
    row_count: usize,
    groups: Vec<MaskGroup>,
}

impl CompiledTable {
    /// Builds the lookup index. Called via [`FunctionTable::compile`].
    ///
    /// # Panics
    ///
    /// Panics if the table's arity exceeds 64 (the mask word width); the
    /// paper's tables are a few inputs wide.
    #[must_use]
    pub(crate) fn build(table: &FunctionTable) -> CompiledTable {
        assert!(
            table.arity() <= 64,
            "CompiledTable supports arity ≤ 64, got {}",
            table.arity()
        );
        let mut groups: Vec<MaskGroup> = Vec::new();
        for row in table {
            let mut mask = 0u64;
            let mut values = Vec::new();
            for (i, x) in row.inputs().iter().enumerate() {
                if let Some(v) = x.value() {
                    mask |= 1 << i;
                    values.push(v);
                }
            }
            if mask == 0 {
                // An all-∞ pattern can never match (no shift is defined);
                // normal form forbids it anyway.
                continue;
            }
            let group = match groups.iter_mut().find(|g| g.mask == mask) {
                Some(g) => g,
                None => {
                    groups.push(MaskGroup {
                        mask,
                        positions: (0..table.arity())
                            .filter(|i| mask & (1 << i) != 0)
                            .collect(),
                        rows: FxHashMap::default(),
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            // Normal form guarantees distinct patterns; merge defensively
            // with the earliest output (matching `eval`'s min).
            group
                .rows
                .entry(values)
                .and_modify(|out| *out = (*out).min(row.output()))
                .or_insert(row.output());
        }
        CompiledTable {
            arity: table.arity(),
            row_count: table.len(),
            groups,
        }
    }

    /// The number of input lines.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of rows the source table held.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The number of distinct finite-support masks (hash probes per
    /// evaluation).
    #[must_use]
    pub fn mask_count(&self) -> usize {
        self.groups.len()
    }

    /// Evaluates the table, bit-identically to [`FunctionTable::eval`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the table's arity.
    pub fn eval(&self, inputs: &[Time]) -> Result<Time, CoreError> {
        if inputs.len() != self.arity {
            return Err(CoreError::ArityMismatch {
                expected: self.arity,
                actual: inputs.len(),
            });
        }
        let mut best = Time::INFINITY;
        let mut key = Vec::new();
        'mask: for group in &self.groups {
            // The row's finite positions all need finite inputs; the shift
            // is the smallest of them (normalized rows bottom out at 0).
            let mut shift = u64::MAX;
            for &i in &group.positions {
                match inputs[i].value() {
                    Some(v) => shift = shift.min(v),
                    None => continue 'mask,
                }
            }
            key.clear();
            key.extend(
                group
                    .positions
                    .iter()
                    .map(|&i| inputs[i].expect_finite() - shift),
            );
            let Some(&output) = group.rows.get(&key) else {
                continue;
            };
            let shifted = output + shift;
            // Causal-extension check for the row's ∞ entries: a finite
            // input there must arrive after the produced output.
            for (i, &x) in inputs.iter().enumerate() {
                if group.mask & (1 << i) == 0 && x <= shifted {
                    continue 'mask;
                }
            }
            best = best.min(shifted);
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::enumerate_inputs;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn paper_table() -> FunctionTable {
        FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap()
    }

    #[test]
    fn matches_eval_on_paper_example() {
        let table = paper_table();
        let compiled = table.compile();
        assert_eq!(compiled.arity(), 3);
        assert_eq!(compiled.row_count(), 3);
        assert_eq!(compiled.eval(&[t(3), t(4), t(5)]).unwrap(), t(6));
    }

    #[test]
    fn matches_eval_exhaustively_within_window() {
        // Every input pattern over a window wider than the table's own, so
        // shifts, ∞-extension, and non-matching patterns all occur.
        let table = paper_table();
        let compiled = table.compile();
        for inputs in enumerate_inputs(3, 4) {
            assert_eq!(
                compiled.eval(&inputs).unwrap(),
                table.eval(&inputs).unwrap(),
                "diverged at {inputs:?}"
            );
        }
    }

    #[test]
    fn mask_groups_collapse_rows() {
        // 2-input identity-ish table: all rows share the full mask.
        let table = FunctionTable::parse("0 0 -> 1\n0 1 -> 1\n1 0 -> 2\n").unwrap();
        let compiled = table.compile();
        assert_eq!(compiled.mask_count(), 1);
        assert_eq!(compiled.row_count(), 3);
    }

    #[test]
    fn rejects_wrong_arity() {
        let compiled = paper_table().compile();
        assert!(matches!(
            compiled.eval(&[t(0)]),
            Err(CoreError::ArityMismatch {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn infinite_inputs_follow_table_semantics() {
        let table = paper_table();
        let compiled = table.compile();
        let inf = Time::INFINITY;
        for inputs in [
            vec![inf, inf, inf],
            vec![t(1), t(0), inf],
            vec![inf, t(0), t(2)],
            vec![t(9), inf, inf],
        ] {
            assert_eq!(
                compiled.eval(&inputs).unwrap(),
                table.eval(&inputs).unwrap(),
                "diverged at {inputs:?}"
            );
        }
    }
}
