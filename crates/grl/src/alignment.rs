//! Race-logic sequence alignment (edit distance).
//!
//! The flagship application of Madhavan, Sherwood and Strukov's original
//! race logic — which § V of the paper generalizes — is dynamic-programming
//! sequence alignment: the edit-distance DP grid *is* a weighted DAG, so
//! the distance is computed by racing a wavefront of edges through a grid
//! of OR-joins and delay elements. The first edge to reach the far corner
//! arrives at exactly the edit distance.
//!
//! [`edit_distance_race`] runs the computation on the gate-level GRL
//! simulator; [`edit_distance_reference`] is the textbook DP baseline.

use crate::compile::GrlCompileError;
use crate::shortest_path::{shortest_paths_race, WeightedDag};
use crate::sim::GrlReport;

/// Builds the edit-distance DAG for two sequences: node `(i, j)` means "i
/// symbols of `a` and j symbols of `b` consumed"; edges are deletion and
/// insertion (weight 1) and match/substitution (weight 0/1).
#[must_use]
#[allow(clippy::needless_range_loop)] // (i, j) grid indexing is the DP idiom
pub fn alignment_dag<T: PartialEq>(a: &[T], b: &[T]) -> WeightedDag {
    let n = a.len();
    let m = b.len();
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    let mut edges = Vec::new();
    for i in 0..=n {
        for j in 0..=m {
            if i < n {
                edges.push((idx(i, j), idx(i + 1, j), 1)); // delete a[i]
            }
            if j < m {
                edges.push((idx(i, j), idx(i, j + 1), 1)); // insert b[j]
            }
            if i < n && j < m {
                let cost = u64::from(a[i] != b[j]);
                edges.push((idx(i, j), idx(i + 1, j + 1), cost));
            }
        }
    }
    WeightedDag::new((n + 1) * (m + 1), edges).expect("grid edges are forward in index order")
}

/// Edit distance computed by the race-logic circuit, plus the simulation
/// report. The distance is the *fall time* of the far-corner wire — the
/// computation takes exactly `distance` cycles of evaluation.
///
/// # Errors
///
/// [`GrlCompileError`] when the grid's delays pass
/// [`crate::MAX_DELAY_STAGES`] flip-flop stages (about three per cell).
pub fn edit_distance_race<T: PartialEq>(
    a: &[T],
    b: &[T],
) -> Result<(u64, GrlReport), GrlCompileError> {
    let dag = alignment_dag(a, b);
    let (distances, report) = shortest_paths_race(&dag, 0)?;
    let d = distances
        .last()
        .expect("grid has at least one node")
        .value()
        .expect("the far corner is always reachable");
    Ok((d, report))
}

/// Textbook dynamic-programming edit distance (the baseline).
#[must_use]
pub fn edit_distance_reference<T: PartialEq>(a: &[T], b: &[T]) -> u64 {
    let n = a.len();
    let m = b.len();
    let mut prev: Vec<u64> = (0..=m as u64).collect();
    let mut cur = vec![0u64; m + 1];
    for i in 1..=n {
        cur[0] = i as u64;
        for j in 1..=m {
            let cost = u64::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Distances from the origin to *every* grid cell via race logic — the
/// full DP table, read off the wavefront's arrival times.
///
/// # Errors
///
/// [`GrlCompileError`] when the grid's delays pass
/// [`crate::MAX_DELAY_STAGES`] flip-flop stages.
pub fn alignment_table_race<T: PartialEq>(
    a: &[T],
    b: &[T],
) -> Result<Vec<Vec<u64>>, GrlCompileError> {
    let dag = alignment_dag(a, b);
    let (distances, _) = shortest_paths_race(&dag, 0)?;
    let m = b.len();
    Ok(distances
        .chunks(m + 1)
        .map(|row| {
            row.iter()
                .map(|d| d.value().expect("all grid cells reachable"))
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn race(a: &str, b: &str) -> u64 {
        edit_distance_race(a.as_bytes(), b.as_bytes()).unwrap().0
    }

    fn reference(a: &str, b: &str) -> u64 {
        edit_distance_reference(a.as_bytes(), b.as_bytes())
    }

    #[test]
    fn textbook_cases() {
        assert_eq!(reference("kitten", "sitting"), 3);
        assert_eq!(race("kitten", "sitting"), 3);
        assert_eq!(race("GATTACA", "GCATGCU"), 4);
        assert_eq!(race("abc", "abc"), 0);
        assert_eq!(race("", "abc"), 3);
        assert_eq!(race("abc", ""), 3);
        assert_eq!(race("", ""), 0);
        assert_eq!(race("a", "b"), 1);
    }

    #[test]
    fn race_matches_reference_on_random_dna() {
        let mut rng = StdRng::seed_from_u64(77);
        let bases = [b'A', b'C', b'G', b'T'];
        for _ in 0..25 {
            let len_a = rng.random_range(0..10);
            let len_b = rng.random_range(0..10);
            let a: Vec<u8> = (0..len_a)
                .map(|_| bases[rng.random_range(0..4usize)])
                .collect();
            let b: Vec<u8> = (0..len_b)
                .map(|_| bases[rng.random_range(0..4usize)])
                .collect();
            assert_eq!(
                edit_distance_race(&a, &b).unwrap().0,
                edit_distance_reference(&a, &b),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn the_answer_is_the_arrival_time() {
        let (d, report) = edit_distance_race(b"kitten", b"sitting").unwrap();
        // The far corner's wire fell at exactly cycle d; nothing needs to
        // settle much later (residual flip-flops drain a little longer).
        assert_eq!(d, 3);
        assert!(report.cycles >= d);
        // Minimal-transition property holds here too.
        assert!(report.eval_transitions <= report.fall_times.len());
    }

    #[test]
    fn full_table_matches_dp() {
        let a = b"race";
        let b = b"trace";
        let table = alignment_table_race(a, b).unwrap();
        assert_eq!(table.len(), a.len() + 1);
        assert_eq!(table[0], vec![0, 1, 2, 3, 4, 5]);
        for (i, row) in table.iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(
                    cell,
                    edit_distance_reference(&a[..i], &b[..j]),
                    "cell ({i}, {j})"
                );
            }
        }
        assert_eq!(table[a.len()][b.len()], 1); // "race" → "trace"
    }

    #[test]
    fn works_for_non_byte_alphabets() {
        let a = [1u32, 2, 3, 4];
        let b = [1u32, 3, 4];
        assert_eq!(edit_distance_race(&a, &b).unwrap().0, 1);
        assert_eq!(edit_distance_reference(&a, &b), 1);
    }
}
