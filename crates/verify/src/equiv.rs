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
//! When both sides are shift-invariant ([`Evaluator::invariant`]), every
//! volley whose earliest spike is at `c > 0` is a shifted copy of one
//! spiking at 0 (§ III.C), so the walk visits only the volleys with a
//! spike at 0 plus the all-silent one, in the same order. The minimal
//! counterexample cannot move: shifting one whose earliest spike is at
//! `m > 0` back by `m` would give a counterexample of smaller extent.
//!
//! Volleys travel in packets of up to [`MAX_PACKET`] consecutive ones
//! ([`Evaluator::eval_packet`]), and each packet's lanes are compared
//! in order, so every verdict and counterexample is the one a
//! volley-at-a-time walk over the same volleys would produce.
//! [`check_sampled`] walks a seeded sample through the same packets
//! when a domain is too large to exhaust.

use core::fmt;
use core::ops::Range;

use st_core::{Time, Volley};
use st_kernel::MAX_PACKET;
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
    /// How many volleys were walked: `(window + 2)^width`, or
    /// `(window + 2)^width − (window + 1)^width + 1` when both sides are
    /// shift-invariant.
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
    feasible_window(window, width) == Some(window)
}

/// The largest window `<= requested` whose exhaustive domain fits
/// [`MAX_VOLLEYS`], or `None` when even window 0 is too large.
#[must_use]
pub fn feasible_window(requested: u64, width: usize) -> Option<u64> {
    let Ok(width) = u32::try_from(width) else {
        return None;
    };
    if width == 0 {
        // One volley, the empty one, at any window.
        return Some(requested);
    }
    // Bisect for the largest base `window + 2` whose domain fits: base 1
    // always does and `MAX_VOLLEYS + 1` never does.
    let fits_base = |base: u64| base.checked_pow(width).is_some_and(|n| n <= MAX_VOLLEYS);
    let (mut base, mut too_large) = (1, MAX_VOLLEYS + 1);
    while too_large - base > 1 {
        let mid = base + (too_large - base) / 2;
        if fits_base(mid) {
            base = mid;
        } else {
            too_large = mid;
        }
    }
    base.checked_sub(2).map(|largest| largest.min(requested))
}

/// Exhaustively compares two evaluators over every normalized volley
/// with entries in `{0, …, window} ∪ {∞}` — only those with a spike at 0,
/// plus the all-silent one, when both sides are shift-invariant.
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
    let normalized = left.invariant() && right.invariant();
    // With no inputs the one volley, the empty one, has extent 0.
    let last = if width == 0 { 0 } else { window };
    let mut packets = Packets::new(left, right);
    let mut volleys = 0u64;
    for extent in 0..=last {
        let _span = tracer.span("verify.window", parent);
        let mut fresh = Extent::new(width, extent, normalized);
        match packets.walk(|out| fresh.next_into(out)) {
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

/// The volleys one extent adds to the walk, in
/// [`st_core::enumerate_inputs`] order (line 0's digit least
/// significant, digit `extent + 1` standing for `∞`): those that use
/// tick `extent` — every volley at extent 0 — and, on a normalized walk,
/// only those of them that also spike at 0.
///
/// The walk steps through *rows*, the digits of lines `1..`, and in
/// each row jumps straight to the line-0 digits that make the volley
/// fresh, so its cost follows the volleys it yields rather than the
/// `(extent + 2)^width` volleys it passes over.
struct Extent {
    extent: u64,
    normalized: bool,
    /// Line 0's digit (rewritten per volley), then the row.
    digits: Vec<u64>,
    /// The line-0 digits still to yield in the current row.
    lows: Range<u64>,
    done: bool,
}

impl Extent {
    fn new(width: usize, extent: u64, normalized: bool) -> Extent {
        let mut walk = Extent {
            extent,
            normalized,
            digits: vec![0; width],
            lows: 0..0,
            done: false,
        };
        walk.lows = walk.fresh_lows();
        walk
    }

    /// The line-0 digits that make a volley with the current row fresh.
    fn fresh_lows(&self) -> Range<u64> {
        let (tick, silent) = (self.extent, self.extent + 1);
        let none = tick..tick;
        if self.digits.is_empty() {
            // The empty volley, the only one, has extent 0.
            return if tick == 0 { 0..1 } else { none };
        }
        if tick == 0 {
            return 0..silent + 1;
        }
        let row = self.digits.get(1..).unwrap_or_default();
        let needs_tick = !row.contains(&tick);
        let needs_zero = self.normalized && !row.contains(&0);
        match (needs_tick, needs_zero) {
            // Line 0 cannot be both `tick` and 0.
            (true, true) => none,
            (true, false) => tick..tick + 1,
            (false, true) => 0..1,
            (false, false) => 0..silent + 1,
        }
    }

    /// Writes the next volley into `out`, reusing its allocation, or
    /// returns `false` once the extent is exhausted.
    fn next_into(&mut self, out: &mut Vec<Time>) -> bool {
        let silent = self.extent + 1;
        while !self.done {
            if let Some(low) = self.lows.next() {
                if let Some(first) = self.digits.first_mut() {
                    *first = low;
                }
                out.clear();
                out.extend(self.digits.iter().map(|&d| {
                    if d == silent {
                        Time::INFINITY
                    } else {
                        Time::finite(d)
                    }
                }));
                return true;
            }
            self.next_row();
        }
        false
    }

    /// Steps the row odometer, or ends the extent when it wraps.
    fn next_row(&mut self) {
        for digit in self.digits.iter_mut().skip(1) {
            if *digit <= self.extent {
                *digit += 1;
                self.lows = self.fresh_lows();
                return;
            }
            *digit = 0;
        }
        self.done = true;
    }
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
    let mut drawn = 0;
    let mut sample = |out: &mut Vec<Time>| {
        if drawn == count {
            return false;
        }
        drawn += 1;
        out.clear();
        out.extend((0..width).map(|_| {
            let r = rng.next() % (window + 2);
            if r == window + 1 {
                Time::INFINITY
            } else {
                Time::finite(r)
            }
        }));
        true
    };
    match Packets::new(left, right).walk(&mut sample) {
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
            volleys: vec![Volley::default(); MAX_PACKET],
            left_out: vec![Volley::default(); MAX_PACKET],
            right_out: vec![Volley::default(); MAX_PACKET],
        }
    }

    /// Walks the volleys `next` writes, until it returns `false`, in
    /// packets of up to [`MAX_PACKET`] consecutive volleys, and stops
    /// where a volley-at-a-time walk would: at the first volley on which
    /// the left side fails, the right side fails, or the two disagree,
    /// checked in that order.
    fn walk(&mut self, mut next: impl FnMut(&mut Vec<Time>) -> bool) -> Walk {
        let mut agreed = 0;
        loop {
            let mut n = 0;
            while n < MAX_PACKET {
                let mut times = Vec::from(std::mem::take(&mut self.volleys[n]));
                let more = next(&mut times);
                self.volleys[n] = Volley::new(times);
                if !more {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                return Walk::Agreed(agreed);
            }
            let volleys = &self.volleys[..n];
            let left_failed = self
                .left
                .eval_packet(volleys, &mut self.left_out[..n])
                .err();
            let right_failed = self
                .right
                .eval_packet(volleys, &mut self.right_out[..n])
                .err();
            // Lanes before either failure hold valid outputs on both sides.
            let left_stop = left_failed.as_ref().map_or(n, |(at, _)| *at);
            let right_stop = right_failed.as_ref().map_or(n, |(at, _)| *at);
            let compared = left_stop.min(right_stop);
            for (lane, volley) in volleys.iter().enumerate().take(compared) {
                let l = self.left_out[lane].times();
                let r = self.right_out[lane].times();
                if let Some(output) = (0..l.len()).find(|&i| l[i] != r[i]) {
                    return Walk::Refuted(Counterexample {
                        left: self.left.name().to_owned(),
                        right: self.right.name().to_owned(),
                        inputs: volley.times().to_vec(),
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
    use crate::eval::{Evaluator, NetEvaluator, TableEvaluator};
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
        // Tables are shift-invariant, so only the volleys over {0..3, ∞}³
        // with a spike at 0, plus the all-silent one: 5³ − 4³ + 1.
        assert_eq!(proof.volleys, 62);
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
        // `window + 2` would overflow at the top of the range.
        for window in [u64::MAX, u64::MAX - 1] {
            let err = check_equiv(&TableEvaluator::new(&t), &TableEvaluator::spec(&t), window)
                .unwrap_err();
            assert!(err.contains("domain too large"), "{err}");
        }
    }

    /// With no inputs the only volley is the empty one, at extent 0, so
    /// a huge window costs one volley.
    #[test]
    fn a_zero_input_network_proves_at_any_window() {
        let net = st_net::parse_network("g0 = const 3\noutputs g0\n").unwrap();
        let result = check_equiv(
            &NetEvaluator::new(&net),
            &NetEvaluator::new(&net),
            10_000_000_000,
        )
        .unwrap();
        let proof = result.proof().expect("a network equals itself");
        assert_eq!(proof.window, 10_000_000_000);
        assert_eq!(proof.volleys, 1);
    }

    /// `x` and `lt(x, 1)` agree on both volleys with a spike at 0 (`0`
    /// and `∞`); the finite constant makes the right side report
    /// `invariant() == false`, so the walk still meets `[1]`. Against
    /// `lt(x, 5)`, equal through window 4, it walks all six volleys.
    #[test]
    fn a_finite_constant_keeps_the_full_walk() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let identity = NetEvaluator::new(&b.build([x]));
        assert!(identity.invariant());
        let gated = |bound: u64| {
            let mut b = NetworkBuilder::new();
            let x = b.input();
            let c = b.constant(t(bound));
            let l = b.lt(x, c);
            NetEvaluator::new(&b.build([l]))
        };
        assert!(!gated(1).invariant());

        let result = check_equiv(&identity, &gated(1), 4).unwrap();
        let cex = result.counterexample().expect("1 is not ∞");
        assert_eq!(cex.inputs, vec![t(1)]);
        assert_eq!(cex.left_outputs, vec![t(1)]);
        assert_eq!(cex.right_outputs, vec![Time::INFINITY]);

        let result = check_equiv(&identity, &gated(5), 4).unwrap();
        assert_eq!(result.proof().map(|p| p.volleys), Some(6));
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
        // Huge requests start at the largest window that can fit:
        // 158³ ≤ 4M < 159³, and 2000² = 4M.
        assert_eq!(feasible_window(u64::MAX, 3), Some(156));
        assert_eq!(feasible_window(1_000_000_000_000, 2), Some(1998));
        assert_eq!(feasible_window(u64::MAX, 0), Some(u64::MAX));
    }
}
