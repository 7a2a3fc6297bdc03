//! The output oracle: each spec's own evaluator, independent of the
//! pipeline under test.
//!
//! A reference never goes through `st-opt` or `st-kernel`: a table is
//! evaluated by `FunctionTable::eval`, a netlist by `Network::eval` on
//! the parsed, unoptimized network, and a column by `Column::eval`.
//! Reference outputs are computed before timing starts and outside the
//! set-up time.

use spacetime::core::{FunctionTable, Time, Volley};
use spacetime::net::{parse_network, Network};
use spacetime::tnn::{parse_column, Column};

use crate::corpus::{beyond_lane_bound, Front, Rng, Spec};

/// A spec's own evaluator.
#[derive(Debug, Clone)]
pub enum Reference {
    /// `FunctionTable::eval`.
    Table(FunctionTable),
    /// `Network::eval` on the parsed network.
    Net(Network),
    /// `Column::eval`.
    Column(Column),
}

impl Reference {
    /// Parses the spec into its reference evaluator.
    ///
    /// # Errors
    ///
    /// Returns the front end's parse error.
    pub fn parse(spec: &Spec) -> Result<Reference, String> {
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
        Ok(match spec.front {
            Front::Table => {
                Reference::Table(FunctionTable::parse(&spec.text).map_err(|e| err(&e))?)
            }
            Front::Net => Reference::Net(parse_network(&spec.text).map_err(|e| err(&e))?),
            Front::Column => Reference::Column(parse_column(&spec.text).map_err(|e| err(&e))?),
        })
    }

    /// The input width the spec expects.
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            Reference::Table(t) => t.arity(),
            Reference::Net(n) => n.input_count(),
            Reference::Column(c) => c.input_width(),
        }
    }

    /// Evaluates one volley.
    ///
    /// # Errors
    ///
    /// Returns the evaluator's error (a width mismatch).
    pub fn eval(&self, volley: &Volley) -> Result<Volley, String> {
        let times = volley.times();
        match self {
            Reference::Table(t) => t
                .eval(times)
                .map(|out| Volley::new(vec![out]))
                .map_err(|e| e.to_string()),
            Reference::Net(n) => n.eval(times).map(Volley::new).map_err(|e| e.to_string()),
            Reference::Column(c) if volley.width() == c.input_width() => Ok(c.eval(volley)),
            Reference::Column(c) => Err(format!(
                "width {} volley for a {}-input column",
                volley.width(),
                c.input_width()
            )),
        }
    }

    /// Evaluates a batch.
    ///
    /// # Errors
    ///
    /// Returns the first evaluation error.
    pub fn eval_all(&self, volleys: &[Volley]) -> Result<Vec<Volley>, String> {
        volleys.iter().map(|v| self.eval(v)).collect()
    }
}

/// Volleys per spot-check call.
pub const SPOT_VOLLEYS: usize = 128;

/// Times a spot-check line may take besides ∞: the edges of the
/// optimizer's default proof window (0, 4 and one past it) and of the
/// lint's § IV coding window (16), plus anything in between.
const EDGE_TIMES: [u64; 4] = [0, 4, 5, 16];

/// One compiled spec's spot check: two batch calls, one inside the
/// plan's lane bound (SWAR path) and one with a spike past it (scalar
/// fallback), with the reference outputs of both.
#[derive(Debug, Clone)]
pub struct SpotCheck {
    /// Volleys within every lane bound.
    pub in_lane: Vec<Volley>,
    /// Reference outputs for `in_lane`.
    pub in_lane_expected: Vec<Volley>,
    /// The same volleys with one spike moved past the lane bound.
    pub beyond: Vec<Volley>,
    /// Reference outputs for `beyond`.
    pub beyond_expected: Vec<Volley>,
}

impl SpotCheck {
    /// Draws a seeded sample for `reference` and computes its outputs.
    ///
    /// # Errors
    ///
    /// Returns the reference's evaluation error.
    pub fn new(reference: &Reference, rng: &mut Rng) -> Result<SpotCheck, String> {
        let width = reference.width();
        let in_lane: Vec<Volley> = (0..SPOT_VOLLEYS)
            .map(|_| {
                (0..width)
                    .map(|_| match rng.below(8) {
                        0 | 1 => Time::INFINITY,
                        2..=5 => Time::finite(EDGE_TIMES[rng.below(4) as usize]),
                        _ => Time::finite(rng.below(17)),
                    })
                    .collect()
            })
            .collect();
        let mut beyond = in_lane.clone();
        for volley in &mut beyond {
            let mut times = volley.times().to_vec();
            times[rng.below(width as u64) as usize] = beyond_lane_bound(rng);
            *volley = Volley::new(times);
        }
        Ok(SpotCheck {
            in_lane_expected: reference.eval_all(&in_lane)?,
            beyond_expected: reference.eval_all(&beyond)?,
            in_lane,
            beyond,
        })
    }
}

/// How many outputs differ from the reference (a missing output counts
/// as a mismatch).
#[must_use]
pub fn mismatches(outputs: &[Volley], expected: &[Volley]) -> usize {
    let differing = outputs.iter().zip(expected).filter(|(a, b)| a != b).count();
    differing + expected.len().abs_diff(outputs.len())
}
