//! The bounded equivalence checker.
//!
//! Bounded space-time functions have finite normalized tables (§ IV),
//! so equivalence over a coding window is *decidable* by exhausting the
//! normalized input space: every volley whose entries are drawn from
//! `{0, …, w} ∪ {∞}`. The checker walks that space in order of
//! increasing window so the first disagreement it finds is a **minimal
//! counterexample** — no volley with a smaller temporal extent separates
//! the two sides.
//!
//! Volleys travel in packets of up to [`lane::LANES`] consecutive ones
//! ([`Evaluator::eval_packet`]), and each packet's lanes are compared
//! in order, so every verdict, counterexample and volley count is the
//! one a volley-at-a-time walk would produce. [`check_sampled`] walks a
//! seeded sample through the same packets when a domain is too large to
//! exhaust.

use core::fmt;

use st_core::{enumerate_inputs, lane, Time, Volley};
use st_trace::{NullTracer, SpanId, Tracer};

use crate::eval::Evaluator;

/// A hard ceiling on volleys per exhaustive check, guarding against
/// accidentally enormous `(window + 2)^width` domains.
pub const MAX_VOLLEYS: u64 = 4_000_000;

/// A positive result: the two sides agreed on every normalized volley in
/// the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivProof {
    /// Tag of the left evaluator.
    pub left: String,
    /// Tag of the right evaluator.
    pub right: String,
    /// The coding window that was exhausted.
    pub window: u64,
    /// How many volleys were compared.
    pub volleys: u64,
}

impl fmt::Display for EquivProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ≡ {} over window {} ({} volleys)",
            self.left, self.right, self.window, self.volleys
        )
    }
}

/// A refutation: a concrete input volley on which the two sides
/// disagree, minimal in temporal extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Tag of the left evaluator.
    pub left: String,
    /// Tag of the right evaluator.
    pub right: String,
    /// The separating input volley.
    pub inputs: Vec<Time>,
    /// The left side's full output volley.
    pub left_outputs: Vec<Time>,
    /// The right side's full output volley.
    pub right_outputs: Vec<Time>,
    /// The first output line on which the sides differ.
    pub output: usize,
}

impl Counterexample {
    /// The separating volley in the whitespace text form that
    /// `spacetime batch <artifact> --volleys <file>` replays.
    #[must_use]
    pub fn volley_line(&self) -> String {
        let cells: Vec<String> = self.inputs.iter().map(ToString::to_string).collect();
        cells.join(" ")
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "on input [{}]: {} says {}, {} says {} (output {})",
            self.volley_line(),
            self.left,
            self.left_outputs[self.output],
            self.right,
            self.right_outputs[self.output],
            self.output
        )
    }
}

/// The outcome of a bounded equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum EquivResult {
    /// The sides agree on the whole normalized window.
    Proved(EquivProof),
    /// The sides disagree; the witness is minimal in temporal extent.
    Refuted(Counterexample),
}

impl EquivResult {
    /// The proof, if the check succeeded.
    #[must_use]
    pub fn proof(&self) -> Option<&EquivProof> {
        match self {
            EquivResult::Proved(p) => Some(p),
            EquivResult::Refuted(_) => None,
        }
    }

    /// The counterexample, if the check failed.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            EquivResult::Proved(_) => None,
            EquivResult::Refuted(c) => Some(c),
        }
    }
}

/// Whether the exhaustive `(window + 2)^width` domain fits
/// [`MAX_VOLLEYS`].
fn fits(window: u64, width: usize) -> bool {
    (window + 2)
        .checked_pow(u32::try_from(width).unwrap_or(u32::MAX))
        .is_some_and(|total| total <= MAX_VOLLEYS)
}

/// The largest window `<= requested` whose exhaustive domain fits
/// [`MAX_VOLLEYS`], or `None` when even window 0 is too large.
#[must_use]
pub fn feasible_window(requested: u64, width: usize) -> Option<u64> {
    (0..=requested).rev().find(|&w| fits(w, width))
}

/// Exhaustively compares two evaluators over every normalized volley
/// with entries in `{0, …, window} ∪ {∞}`.
///
/// Volleys are visited in order of increasing temporal extent (all
/// volleys of extent `w` before any of extent `w + 1`), so a refutation
/// carries a minimal counterexample.
///
/// # Errors
///
/// Returns a message when the two sides have incompatible shapes, an
/// evaluation fails, or the domain exceeds the safety ceiling — these
/// are operational failures, not semantic verdicts.
pub fn check_equiv(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    window: u64,
) -> Result<EquivResult, String> {
    check_equiv_traced(left, right, window, &mut NullTracer, SpanId::NONE)
}

/// [`check_equiv`] with one `verify.window` span recorded under `parent`
/// per enumerated extent, so profiles show how proof cost grows with
/// temporal extent. With a [`NullTracer`] this is exactly
/// [`check_equiv`].
///
/// # Errors
///
/// Exactly the operational failures [`check_equiv`] reports.
pub fn check_equiv_traced<T: Tracer>(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    window: u64,
    tracer: &mut T,
    parent: SpanId,
) -> Result<EquivResult, String> {
    check_shapes(left, right)?;
    let width = left.input_width();
    if !fits(window, width) {
        return Err(format!(
            "domain too large: ({window} + 2)^{width} volleys exceed the {MAX_VOLLEYS} ceiling; \
             lower --window"
        ));
    }
    let mut packets = Packets::new(left, right);
    let mut volleys = 0u64;
    for extent in 0..=window {
        let _span = tracer.span("verify.window", parent);
        // Volleys already covered at a smaller extent are skipped: only
        // those that actually use tick `extent` are new.
        let fresh = enumerate_inputs(width, extent)
            .filter(|inputs| extent == 0 || inputs.contains(&Time::finite(extent)));
        match packets.walk(fresh) {
            Walk::Agreed(n) => volleys += n,
            Walk::Refuted(c) => return Ok(EquivResult::Refuted(c)),
            Walk::Failed(side, e) => return Err(format!("{side} failed: {e}")),
        }
    }
    Ok(EquivResult::Proved(EquivProof {
        left: left.name().to_owned(),
        right: right.name().to_owned(),
        window,
        volleys,
    }))
}

/// Compares two evaluators on `count` seeded pseudo-random volleys with
/// entries in `{0, …, window} ∪ {∞}` — the differential fallback for a
/// domain too large to exhaust at any window. The xorshift64* stream is
/// seeded from the width and window, so a run is reproducible. Agreement
/// is evidence, not a proof.
///
/// Returns the first disagreeing sample, or `None` when all agree.
///
/// # Errors
///
/// Returns a message when the two sides have incompatible shapes, or
/// the failing evaluator's own message when an evaluation fails.
pub fn check_sampled(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    window: u64,
    count: usize,
) -> Result<Option<Counterexample>, String> {
    check_shapes(left, right)?;
    let width = left.input_width();
    let mut rng = SampleRng(0x5EED_0007 ^ ((width as u64) << 8) ^ window);
    let samples = (0..count).map(|_| {
        (0..width)
            .map(|_| {
                let r = rng.next() % (window + 2);
                if r == window + 1 {
                    Time::INFINITY
                } else {
                    Time::finite(r)
                }
            })
            .collect()
    });
    match Packets::new(left, right).walk(samples) {
        Walk::Agreed(_) => Ok(None),
        Walk::Refuted(c) => Ok(Some(c)),
        Walk::Failed(_, e) => Err(e),
    }
}

/// Rejects a pair whose input or output widths differ.
fn check_shapes(left: &dyn Evaluator, right: &dyn Evaluator) -> Result<(), String> {
    if left.input_width() != right.input_width() {
        return Err(format!(
            "input width mismatch: {} has {}, {} has {}",
            left.name(),
            left.input_width(),
            right.name(),
            right.input_width()
        ));
    }
    if left.output_width() != right.output_width() {
        return Err(format!(
            "output width mismatch: {} has {}, {} has {}",
            left.name(),
            left.output_width(),
            right.name(),
            right.output_width()
        ));
    }
    Ok(())
}

/// A deterministic xorshift64* stream for [`check_sampled`].
struct SampleRng(u64);

impl SampleRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Where a [`Packets::walk`] ended.
enum Walk {
    /// Every volley agreed; how many there were.
    Agreed(u64),
    /// The first volley on which the sides disagree.
    Refuted(Counterexample),
    /// The first failed evaluation: the failing side's name and message.
    Failed(&'static str, String),
}

/// The two sides of one check plus the buffers a packet moves through,
/// reused from packet to packet.
struct Packets<'a> {
    left: &'a dyn Evaluator,
    right: &'a dyn Evaluator,
    volleys: Vec<Volley>,
    left_out: Vec<Volley>,
    right_out: Vec<Volley>,
}

impl<'a> Packets<'a> {
    fn new(left: &'a dyn Evaluator, right: &'a dyn Evaluator) -> Packets<'a> {
        Packets {
            left,
            right,
            volleys: Vec::with_capacity(lane::LANES),
            left_out: vec![Volley::default(); lane::LANES],
            right_out: vec![Volley::default(); lane::LANES],
        }
    }

    /// Walks `inputs` in packets of up to [`lane::LANES`] consecutive
    /// volleys and stops where a volley-at-a-time walk would: at the
    /// first volley on which the left side fails, the right side fails,
    /// or the two disagree, checked in that order.
    fn walk(&mut self, mut inputs: impl Iterator<Item = Vec<Time>>) -> Walk {
        let mut agreed = 0;
        loop {
            self.volleys.clear();
            self.volleys
                .extend(inputs.by_ref().take(lane::LANES).map(Volley::new));
            let n = self.volleys.len();
            if n == 0 {
                return Walk::Agreed(agreed);
            }
            let left_failed = self
                .left
                .eval_packet(&self.volleys, &mut self.left_out[..n])
                .err();
            let right_failed = self
                .right
                .eval_packet(&self.volleys, &mut self.right_out[..n])
                .err();
            // Lanes before either failure hold valid outputs on both sides.
            let left_stop = left_failed.as_ref().map_or(n, |(at, _)| *at);
            let right_stop = right_failed.as_ref().map_or(n, |(at, _)| *at);
            for lane in 0..left_stop.min(right_stop) {
                let l = self.left_out[lane].times();
                let r = self.right_out[lane].times();
                if let Some(output) = (0..l.len()).find(|&i| l[i] != r[i]) {
                    return Walk::Refuted(Counterexample {
                        left: self.left.name().to_owned(),
                        right: self.right.name().to_owned(),
                        inputs: self.volleys[lane].times().to_vec(),
                        left_outputs: l.to_vec(),
                        right_outputs: r.to_vec(),
                        output,
                    });
                }
            }
            // When both sides fail on one volley, the left side's failure
            // is the one a volley-at-a-time walk meets first.
            match (left_failed, right_failed) {
                (Some((_, e)), _) if left_stop <= right_stop => {
                    return Walk::Failed(self.left.name(), e);
                }
                (_, Some((_, e))) => return Walk::Failed(self.right.name(), e),
                _ => agreed += n as u64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{NetEvaluator, TableEvaluator};
    use st_core::FunctionTable;
    use st_kernel::{Plan, Scratch};
    use st_net::NetworkBuilder;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn fig7() -> FunctionTable {
        FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap()
    }

    #[test]
    fn a_table_is_equivalent_to_itself() {
        let t = fig7();
        let result = check_equiv(&TableEvaluator::new(&t), &TableEvaluator::spec(&t), 3).unwrap();
        let proof = result.proof().expect("self-equivalence");
        assert_eq!(proof.window, 3);
        // Every volley over {0..3, ∞}³, counted once: 5³.
        assert_eq!(proof.volleys, 125);
    }

    #[test]
    fn different_tables_yield_a_minimal_counterexample() {
        let t = fig7();
        let changed = FunctionTable::parse("0 1 2 -> 4\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap();
        let result =
            check_equiv(&TableEvaluator::new(&t), &TableEvaluator::spec(&changed), 3).unwrap();
        let cex = result.counterexample().expect("tables differ").clone();
        // Minimality: the separating volley uses no tick beyond the
        // changed row's own pattern.
        let extent = cex
            .inputs
            .iter()
            .filter_map(|t| t.value())
            .max()
            .expect("finite entries");
        assert_eq!(extent, 2, "{cex}");
        assert_eq!(cex.volley_line(), "0 1 2");
        assert_ne!(cex.left_outputs, cex.right_outputs);
    }

    #[test]
    fn shape_mismatches_and_huge_domains_are_operational_errors() {
        let t = fig7();
        let narrow = FunctionTable::parse("0 -> 1\n").unwrap();
        let err =
            check_equiv(&TableEvaluator::new(&t), &TableEvaluator::spec(&narrow), 3).unwrap_err();
        assert!(err.contains("width mismatch"), "{err}");
        let err = check_equiv(
            &TableEvaluator::new(&t),
            &TableEvaluator::spec(&t),
            1_000_000,
        )
        .unwrap_err();
        assert!(err.contains("domain too large"), "{err}");
    }

    /// `inc(x, 252)` has lane limit 2: at x = 3 and x = 4 its lanes
    /// saturate to ∞, which is also what `lt(inc(x, 252), 255)` reads
    /// there. Scalar evaluation past the limit tells them apart at 3.
    #[test]
    fn lane_saturation_past_the_limit_cannot_hide_a_counterexample() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d = b.inc(x, 252);
        let delayed = b.build([d]);
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d = b.inc(x, 252);
        let c = b.constant(Time::finite(255));
        let l = b.lt(d, c);
        let gated = b.build([l]);
        assert_eq!(Plan::from_network(&delayed).lane_input_limit(), Some(2));
        assert_eq!(Plan::from_network(&gated).lane_input_limit(), None);

        // What the lanes would read past the limit.
        let plan = Plan::from_network(&delayed);
        let packet = [Volley::new(vec![t(3)]), Volley::new(vec![t(4)])];
        let mut out = vec![Volley::default(); 2];
        plan.eval_packet(&mut Scratch::default(), &packet, &mut out);
        assert!(out.iter().all(|v| v.times() == [Time::INFINITY]));

        let result =
            check_equiv(&NetEvaluator::new(&delayed), &NetEvaluator::new(&gated), 4).unwrap();
        let cex = result.counterexample().expect("255 is not ∞");
        assert_eq!(cex.inputs, vec![t(3)]);
        assert_eq!(cex.left_outputs, vec![t(255)]);
        assert_eq!(cex.right_outputs, vec![Time::INFINITY]);
        assert_eq!(cex.output, 0);
    }

    /// Only one side is lane-capable at window 4: `inc(x, 251)` (limit 3)
    /// against `min_k max(251 + k, lt(x, k + 1))` over `k = 0..=3`
    /// (limit 254), which equals `x + 251` for `x ≤ 3` and is silent at
    /// 4. At extent 4 one side takes the lane path and the other the
    /// scalar one, in both orientations.
    #[test]
    fn a_lane_side_and_a_scalar_side_compare_exactly() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d = b.inc(x, 251);
        let delayed = b.build([d]);
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let arms: Vec<_> = (0..=3)
            .map(|k| {
                let bound = b.constant(t(k + 1));
                let early = b.lt(x, bound);
                let tick = b.constant(t(251 + k));
                b.max2(tick, early)
            })
            .collect();
        let m = b.min(arms).unwrap();
        let ticks = b.build([m]);
        assert_eq!(Plan::from_network(&delayed).lane_input_limit(), Some(3));
        assert_eq!(Plan::from_network(&ticks).lane_input_limit(), Some(254));

        let (l, r) = (NetEvaluator::new(&delayed), NetEvaluator::new(&ticks));
        for (left, right, outputs) in [
            (&l, &r, [t(255), Time::INFINITY]),
            (&r, &l, [Time::INFINITY, t(255)]),
        ] {
            let result = check_equiv(left, right, 4).unwrap();
            let cex = result.counterexample().expect("255 is not ∞");
            assert_eq!(cex.inputs, vec![t(4)]);
            assert_eq!(cex.left_outputs, vec![outputs[0]]);
            assert_eq!(cex.right_outputs, vec![outputs[1]]);
        }
        // Through extent 3 the two agree.
        let proof = check_equiv(&l, &r, 3).unwrap();
        assert_eq!(proof.proof().map(|p| p.volleys), Some(5));
    }

    #[test]
    fn infeasible_windows_shrink_before_sampling() {
        // Width 8 at window 4: 6^8 ≈ 1.7M fits; 7^8 ≈ 5.8M does not,
        // so a window-9 request shrinks to 4.
        assert_eq!(feasible_window(9, 8), Some(4));
        assert_eq!(feasible_window(4, 8), Some(4));
        // Width 30: even window 0 needs 2^30 volleys — sample instead.
        assert_eq!(feasible_window(4, 30), None);
    }
}
