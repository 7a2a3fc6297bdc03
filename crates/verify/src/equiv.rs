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
//! Volleys travel in packets of up to [`MAX_PACKET`] consecutive ones.
//! While every finite time of the check fits a lane byte (windows up to
//! 254), the walk writes each volley's digits straight into one
//! [`ByteBlock`] per input line, takes one block per output from each
//! side ([`Evaluator::eval_lanes`]), compares the blocks as byte slices
//! and decodes only the first differing lane. A packet that either side
//! cannot take as lanes, and every packet of a wider window, is
//! compared volley by volley ([`Evaluator::eval_packet`]). Either way
//! the lanes are compared in order, so every verdict and counterexample
//! is the one a volley-at-a-time walk over the same volleys would
//! produce. [`check_sampled`] walks a seeded sample through the same
//! packets when a domain is too large to exhaust.
//!
//! A [`Reference`] stores one side's walk — the input blocks of every
//! packet beside that side's output blocks — so that proof after proof
//! against it evaluates only the other side, through the same block
//! comparison.

use core::fmt;
use core::ops::Range;
use std::cell::{OnceCell, RefCell};

use st_core::{lane, Time, Volley};
use st_kernel::{ByteBlock, Plan, Scratch, MAX_PACKET};
use st_trace::{NullTracer, SpanId, Tracer};

use crate::eval::{refill, Evaluator};

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
    let mut packets = Packets::new(left, right, window);
    let mut volleys = 0u64;
    for extent in 0..=last_extent(width, window) {
        let _span = tracer.span("verify.window", parent);
        match packets.walk(&mut Extent::new(width, extent, normalized)) {
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

/// The last extent a walk at `window` visits: with no inputs the one
/// volley, the empty one, has extent 0.
fn last_extent(width: usize, window: u64) -> u64 {
    if width == 0 {
        0
    } else {
        window
    }
}

/// The most bytes one stored walk of a [`Reference`] holds: one input
/// block per input line and one output block per output line for each
/// of its packets. A walk that could exceed it is not stored.
pub const MAX_STORED_BYTES: usize = 64 << 20;

/// The original side of a run of proofs, whose walk over the domain is
/// stored so that each proof against it evaluates only the candidate,
/// and whose last proof is kept so that a candidate computing the same
/// plan is not walked again.
///
/// On the first proof that can replay it, a walk of that proof's kind
/// (normalized or full, see [`check_equiv`]) is generated once and
/// stored in the checker's order: every packet's input blocks beside
/// the original's output blocks, and the packets of each extent. Each
/// later proof of that kind runs the candidate's plan
/// ([`Evaluator::plan`]) over the stored input blocks, compares its
/// output blocks with the stored ones as bytes and decodes only the
/// first differing lane, exactly as a live walk compares two sides'
/// blocks; so every verdict, counterexample, volley count and
/// `verify.window` span is the one [`check_equiv_traced`] gives. Lanes
/// past a partial packet's last volley hold the tick after the window
/// on every line (`∞` at window 254), a volley outside the domain that
/// is evaluated with the packet but never compared.
///
/// The reference keeps the plan of the last candidate a replay proved
/// equivalent, with that proof's window, walk kind and [`EquivProof`].
/// A candidate whose plan equals it, at the same window and walk kind,
/// computes the same outputs on every volley of the same stored walk,
/// so it gets that proof back, under its own name, without a walk and
/// without `verify.window` spans. A network side's plan is the live
/// cone of its network ([`NetEvaluator`](crate::eval::NetEvaluator)),
/// so a candidate that only drops dead gates from the last one proved
/// is served this way. Refutations are never kept.
///
/// A proof runs live, as [`check_equiv_traced`] of the original and the
/// candidate, when the candidate has no plan or a
/// [`Plan::lane_input_limit`] below the window, at windows past
/// [`lane::MAX_FINITE`], and when its kind of walk is not stored: the
/// original declines a packet as lanes, the walk could exceed
/// [`MAX_STORED_BYTES`], or the kind is already stored for another
/// window.
#[derive(Debug)]
pub struct Reference<E> {
    original: E,
    cap: usize,
    /// The normalized and the full walk, each generated on first use;
    /// `None` when it cannot be stored.
    walks: [OnceCell<Option<StoredWalk>>; 2],
    /// The candidates' plan buffers, reused from proof to proof.
    scratch: RefCell<Scratch>,
    /// The last candidate plan proved equivalent.
    last: RefCell<Option<LastProof>>,
}

/// One walk over a window's domain, stored packet by packet.
#[derive(Debug)]
struct StoredWalk {
    window: u64,
    packets: Vec<StoredPacket>,
    /// The packets of each extent, in order.
    extents: Vec<Range<usize>>,
}

/// One packet of a [`StoredWalk`].
#[derive(Debug)]
struct StoredPacket {
    /// How many volleys the packet carries.
    lanes: usize,
    /// One block per input line, then the original's block per output
    /// line.
    blocks: Box<[ByteBlock]>,
}

/// The proof a [`Reference`] keeps: the candidate plan it covers, on
/// which kind of walk.
#[derive(Debug)]
struct LastProof {
    plan: Plan,
    normalized: bool,
    proof: EquivProof,
}

impl<E: Evaluator> Reference<E> {
    /// Wraps the side every proof checks against; nothing is walked
    /// until the first proof.
    #[must_use]
    pub fn new(original: E) -> Reference<E> {
        Reference::with_cap(original, MAX_STORED_BYTES)
    }

    fn with_cap(original: E, cap: usize) -> Reference<E> {
        Reference {
            original,
            cap,
            walks: [OnceCell::new(), OnceCell::new()],
            scratch: RefCell::default(),
            last: RefCell::default(),
        }
    }

    /// The wrapped side.
    pub fn original(&self) -> &E {
        &self.original
    }

    /// [`check_equiv`] with the original on the left and `candidate` on
    /// the right, replaying the stored walk where it can.
    ///
    /// # Errors
    ///
    /// Exactly the operational failures [`check_equiv`] reports.
    pub fn check_equiv(
        &self,
        candidate: &dyn Evaluator,
        window: u64,
    ) -> Result<EquivResult, String> {
        self.check_equiv_traced(candidate, window, &mut NullTracer, SpanId::NONE)
    }

    /// [`check_equiv_traced`] with the original on the left and
    /// `candidate` on the right: the kept proof when the candidate's
    /// plan is the last one proved, otherwise a replay of the stored
    /// walk where it can. The first proof of each kind stores its walk
    /// inside the caller's span.
    ///
    /// # Errors
    ///
    /// Exactly the operational failures [`check_equiv`] reports.
    pub fn check_equiv_traced<T: Tracer>(
        &self,
        candidate: &dyn Evaluator,
        window: u64,
        tracer: &mut T,
        parent: SpanId,
    ) -> Result<EquivResult, String> {
        let normalized = self.original.invariant() && candidate.invariant();
        let replay = self
            .lane_plan(candidate, window)
            .and_then(|plan| Some((plan, self.stored(window, normalized)?)));
        let Some((plan, walk)) = replay else {
            return check_equiv_traced(&self.original, candidate, window, tracer, parent);
        };
        if let Some(last) = self.last.borrow().as_ref().filter(|last| {
            last.proof.window == window && last.normalized == normalized && last.plan == *plan
        }) {
            return Ok(EquivResult::Proved(EquivProof {
                right: candidate.name().to_owned(),
                ..last.proof.clone()
            }));
        }
        let result = self.replay(plan, walk, candidate.name(), tracer, parent);
        if let EquivResult::Proved(proof) = &result {
            *self.last.borrow_mut() = Some(LastProof {
                plan: plan.clone(),
                normalized,
                proof: proof.clone(),
            });
        }
        Ok(result)
    }

    /// Runs `plan`, the candidate's (named `name`), over the stored walk
    /// and compares it with the original's blocks, one `verify.window`
    /// span per extent.
    fn replay<T: Tracer>(
        &self,
        plan: &Plan,
        walk: &StoredWalk,
        name: &str,
        tracer: &mut T,
        parent: SpanId,
    ) -> EquivResult {
        let names = [self.original.name(), name];
        let mut scratch = self.scratch.borrow_mut();
        let mut blocks = vec![[lane::INF; MAX_PACKET]; plan.output_width()];
        let mut volleys = 0u64;
        for packets in &walk.extents {
            let _span = tracer.span("verify.window", parent);
            for packet in &walk.packets[packets.clone()] {
                let (inputs, original) = packet.blocks.split_at(plan.input_count());
                plan.eval_blocks(&mut scratch, inputs, &mut blocks);
                if let Some(lane) = first_differing_lane(original, &blocks, packet.lanes) {
                    return EquivResult::Refuted(lane_counterexample(
                        names, inputs, original, &blocks, lane,
                    ));
                }
                volleys += packet.lanes as u64;
            }
        }
        EquivResult::Proved(EquivProof {
            left: names[0].to_owned(),
            right: names[1].to_owned(),
            window: walk.window,
            volleys,
        })
    }

    /// The candidate's plan when it decides the candidate's outputs on
    /// the whole domain at `window` as lanes, or `None` when the proof
    /// runs live.
    fn lane_plan<'a>(&self, candidate: &'a dyn Evaluator, window: u64) -> Option<&'a Plan> {
        let shape = (self.original.input_width(), self.original.output_width());
        candidate.plan().filter(|plan| {
            window <= u64::from(lane::MAX_FINITE)
                && plan.lane_input_limit().is_some_and(|limit| limit >= window)
                && (plan.input_count(), plan.output_width()) == shape
                && (candidate.input_width(), candidate.output_width()) == shape
                && fits(window, shape.0)
        })
    }

    /// The stored walk of one kind at `window`, storing it on first use,
    /// or `None` when the proof runs live.
    fn stored(&self, window: u64, normalized: bool) -> Option<&StoredWalk> {
        self.walks[usize::from(!normalized)]
            .get_or_init(|| self.walk(window, normalized))
            .as_ref()
            .filter(|walk| walk.window == window)
    }

    /// Generates the walk of one kind at `window` and evaluates the
    /// original on every packet, or `None` when the walk cannot be
    /// stored.
    fn walk(&self, window: u64, normalized: bool) -> Option<StoredWalk> {
        let (width, outputs) = (self.original.input_width(), self.original.output_width());
        let last = last_extent(width, window);
        // At most the full domain, and each extent ends in at most one
        // partial packet.
        let domain = (window + 2).checked_pow(u32::try_from(width).ok()?)?;
        let bound = domain / MAX_PACKET as u64 + last + 1;
        let bytes = usize::try_from(bound)
            .ok()?
            .checked_mul(width + outputs)?
            .checked_mul(MAX_PACKET)?;
        if bytes > self.cap {
            return None;
        }
        // The tick after the window: ∞ at window 254.
        let past = u8::try_from(window + 1).unwrap_or(lane::INF);
        let mut walk = StoredWalk {
            window,
            packets: Vec::new(),
            extents: Vec::new(),
        };
        for extent in 0..=last {
            let first = walk.packets.len();
            let mut source = Extent::new(width, extent, normalized);
            loop {
                let mut blocks = vec![[past; MAX_PACKET]; width + outputs].into_boxed_slice();
                let (inputs, out) = blocks.split_at_mut(width);
                let lanes = fill_blocks(inputs, &mut source);
                if lanes == 0 {
                    break;
                }
                if !self.original.eval_lanes(inputs, lanes, out) {
                    return None;
                }
                walk.packets.push(StoredPacket { lanes, blocks });
            }
            walk.extents.push(first..walk.packets.len());
        }
        Some(walk)
    }
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

impl Digits for Extent {
    fn silent(&self) -> u64 {
        self.extent + 1
    }

    fn next_volley(&mut self) -> Option<&[u64]> {
        while !self.done {
            if let Some(low) = self.lows.next() {
                if let Some(first) = self.digits.first_mut() {
                    *first = low;
                }
                return Some(&self.digits);
            }
            self.next_row();
        }
        None
    }
}

/// Compares two evaluators on `count` seeded pseudo-random volleys with
/// entries in `{0, …, min(window, Time::MAX_FINITE)} ∪ {∞}` — the
/// differential fallback for a domain too large to exhaust at any
/// window. The xorshift64* stream is seeded from the width and window,
/// so a run is reproducible. Agreement is evidence, not a proof.
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
    let mut sample = Sample {
        rng: SampleRng(0x5EED_0007 ^ ((width as u64) << 8) ^ window),
        top: Time::MAX_FINITE
            .value()
            .map_or(window, |max| window.min(max)),
        remaining: count,
        digits: vec![0; width],
    };
    match Packets::new(left, right, window).walk(&mut sample) {
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

/// [`check_sampled`]'s volleys: each digit drawn from `{0, …, top}`,
/// with `top + 1` standing for `∞`.
struct Sample {
    rng: SampleRng,
    top: u64,
    remaining: usize,
    digits: Vec<u64>,
}

impl Digits for Sample {
    fn silent(&self) -> u64 {
        self.top + 1
    }

    fn next_volley(&mut self) -> Option<&[u64]> {
        self.remaining = self.remaining.checked_sub(1)?;
        // `top + 2` overflows only when `top + 1` is `u64::MAX`, where a
        // raw draw already covers `{0, …, top + 1}`.
        let modulus = self.top.checked_add(2);
        for digit in &mut self.digits {
            let r = self.rng.next();
            *digit = modulus.map_or(r, |m| r % m);
        }
        Some(&self.digits)
    }
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

/// A stream of volleys, each as one digit per input line: a finite
/// time, or [`Digits::silent`] for `∞`.
trait Digits {
    /// The digit standing for `∞`.
    fn silent(&self) -> u64;

    /// The next volley's digits, or `None` once the stream is exhausted.
    fn next_volley(&mut self) -> Option<&[u64]>;
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
/// reused from packet to packet: lane blocks while every finite time of
/// the check fits a lane byte, volleys otherwise and wherever a side
/// cannot take a packet as lanes.
struct Packets<'a> {
    left: &'a dyn Evaluator,
    right: &'a dyn Evaluator,
    lanes: bool,
    inputs: Vec<ByteBlock>,
    left_blocks: Vec<ByteBlock>,
    right_blocks: Vec<ByteBlock>,
    volleys: Vec<Volley>,
    left_out: Vec<Volley>,
    right_out: Vec<Volley>,
}

impl<'a> Packets<'a> {
    /// The buffers for a check whose finite times are all `<= window`.
    fn new(left: &'a dyn Evaluator, right: &'a dyn Evaluator, window: u64) -> Packets<'a> {
        let blocks = |n: usize| vec![[lane::INF; MAX_PACKET]; n];
        Packets {
            left,
            right,
            lanes: window <= u64::from(lane::MAX_FINITE),
            inputs: blocks(left.input_width()),
            left_blocks: blocks(left.output_width()),
            right_blocks: blocks(right.output_width()),
            volleys: vec![Volley::default(); MAX_PACKET],
            left_out: vec![Volley::default(); MAX_PACKET],
            right_out: vec![Volley::default(); MAX_PACKET],
        }
    }

    /// Walks the volleys of `source` in packets of up to [`MAX_PACKET`]
    /// consecutive volleys, and stops where a volley-at-a-time walk
    /// would: at the first volley on which the left side fails, the
    /// right side fails, or the two disagree, checked in that order.
    fn walk(&mut self, source: &mut impl Digits) -> Walk {
        let mut agreed = 0;
        loop {
            let n = if self.lanes {
                fill_blocks(&mut self.inputs, source)
            } else {
                fill_volleys(&mut self.volleys, source)
            };
            if n == 0 {
                return Walk::Agreed(agreed);
            }
            if self.lanes
                && self.left.eval_lanes(&self.inputs, n, &mut self.left_blocks)
                && self
                    .right
                    .eval_lanes(&self.inputs, n, &mut self.right_blocks)
            {
                if let Some(lane) = first_differing_lane(&self.left_blocks, &self.right_blocks, n) {
                    return Walk::Refuted(lane_counterexample(
                        [self.left.name(), self.right.name()],
                        &self.inputs,
                        &self.left_blocks,
                        &self.right_blocks,
                        lane,
                    ));
                }
                agreed += n as u64;
                continue;
            }
            if self.lanes {
                for (j, slot) in self.volleys.iter_mut().enumerate().take(n) {
                    refill(slot, lane_times(&self.inputs, j));
                }
            }
            match self.compare_volleys(n) {
                Some(end) => return end,
                None => agreed += n as u64,
            }
        }
    }

    /// Compares the packet's first `n` volleys one by one. Returns where
    /// the walk ends, or `None` when all agree.
    fn compare_volleys(&mut self, n: usize) -> Option<Walk> {
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
                return Some(Walk::Refuted(Counterexample {
                    left: self.left.name().to_owned(),
                    right: self.right.name().to_owned(),
                    inputs: volley.times().to_vec(),
                    left_outputs: l.to_vec(),
                    right_outputs: r.to_vec(),
                    output,
                }));
            }
        }
        // When both sides fail on one volley, the left side's failure
        // is the one a volley-at-a-time walk meets first.
        match (left_failed, right_failed) {
            (Some((_, e)), _) if left_stop <= right_stop => Some(Walk::Failed(self.left.name(), e)),
            (_, Some((_, e))) => Some(Walk::Failed(self.right.name(), e)),
            _ => None,
        }
    }
}

/// Writes the next volleys of `source`, up to [`MAX_PACKET`], into one
/// block per input line, volley `j`'s lane encoding in byte `j`, and
/// returns how many it wrote. Bytes past them keep what they held.
fn fill_blocks(blocks: &mut [ByteBlock], source: &mut impl Digits) -> usize {
    let silent = source.silent();
    let mut n = 0;
    while n < MAX_PACKET {
        let Some(digits) = source.next_volley() else {
            break;
        };
        // Finite digits are at most the window, below 255.
        for (block, &d) in blocks.iter_mut().zip(digits) {
            block[n] = if d == silent { lane::INF } else { d as u8 };
        }
        n += 1;
    }
    n
}

/// Writes the next volleys of `source` into `volleys`, one per slot,
/// and returns how many it wrote.
fn fill_volleys(volleys: &mut [Volley], source: &mut impl Digits) -> usize {
    let silent = source.silent();
    let mut n = 0;
    for slot in volleys {
        let Some(digits) = source.next_volley() else {
            break;
        };
        refill(
            slot,
            digits.iter().map(|&d| {
                if d == silent {
                    Time::INFINITY
                } else {
                    Time::finite(d)
                }
            }),
        );
        n += 1;
    }
    n
}

/// The first of a packet's `n` lanes on which some output block differs
/// between the two sides.
fn first_differing_lane(left: &[ByteBlock], right: &[ByteBlock], n: usize) -> Option<usize> {
    left.iter()
        .zip(right)
        .filter(|(l, r)| l[..n] != r[..n])
        .filter_map(|(l, r)| l[..n].iter().zip(&r[..n]).position(|(a, b)| a != b))
        .min()
}

/// The counterexample of a packet's lane `lane`, decoded from its input
/// blocks and the two sides' output blocks; `names` are the sides' tags.
fn lane_counterexample(
    names: [&str; 2],
    inputs: &[ByteBlock],
    left: &[ByteBlock],
    right: &[ByteBlock],
    lane: usize,
) -> Counterexample {
    let left_outputs: Vec<Time> = lane_times(left, lane).collect();
    let right_outputs: Vec<Time> = lane_times(right, lane).collect();
    Counterexample {
        left: names[0].to_owned(),
        right: names[1].to_owned(),
        inputs: lane_times(inputs, lane).collect(),
        output: (0..left_outputs.len())
            .find(|&i| left_outputs[i] != right_outputs[i])
            .unwrap_or_default(),
        left_outputs,
        right_outputs,
    }
}

/// Lane `lane` of every block, decoded: one volley's times.
fn lane_times(blocks: &[ByteBlock], lane: usize) -> impl Iterator<Item = Time> + '_ {
    blocks.iter().map(move |block| lane::decode(block[lane]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, NetEvaluator, TableEvaluator};
    use st_core::FunctionTable;
    use st_kernel::{Plan, Scratch};
    use st_net::{GateId, NetworkBuilder};

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

    /// `window + 2` overflows at the two largest windows. The sample
    /// still draws over `{0, …, Time::MAX_FINITE} ∪ {∞}`: it neither
    /// divides by zero at `u64::MAX − 1` nor collapses onto the
    /// all-silent volley at `u64::MAX`, where `min` and `max` of 22
    /// inputs agree.
    #[test]
    fn sampled_checks_draw_over_the_largest_windows() {
        let wide = |max: bool| {
            let mut b = NetworkBuilder::new();
            let inputs = b.inputs(22);
            let gate = if max { b.max(inputs) } else { b.min(inputs) }.unwrap();
            NetEvaluator::new(&b.build([gate]))
        };
        let (min, max) = (wide(false), wide(true));
        for window in [4, u64::MAX - 1, u64::MAX] {
            let cex = check_sampled(&min, &max, window, 4096).unwrap();
            assert!(cex.is_some(), "window {window}");
            assert_eq!(check_sampled(&min, &min, window, 4096), Ok(None));
        }
    }

    /// A network evaluator that takes no packet as lanes, so every packet
    /// is compared volley by volley.
    struct VolleyPath(NetEvaluator);

    impl Evaluator for VolleyPath {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn input_width(&self) -> usize {
            self.0.input_width()
        }

        fn output_width(&self) -> usize {
            self.0.output_width()
        }

        fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
            self.0.eval(inputs)
        }
    }

    /// `[x1, x0]` against `[min(x1, 4), min(x0, 4)]`, both gated on
    /// `x2 = 4 ∧ x3 = 3`: output 1 differs exactly when `x0 = ∞` under
    /// the gate, output 0 when `x1 = ∞`. At window 4 every mismatch sits
    /// in extent 4. The first, `[∞ 0 4 3]` on output 1, is lane 66 of the
    /// extent's second 256-volley block, output 1 differs again at lane
    /// 72, and output 0 first differs at lane 91. The block comparison
    /// takes the earliest lane over all outputs and decodes it, as the
    /// volley path does.
    #[test]
    fn a_counterexample_deep_in_a_second_block_is_the_first_lane() {
        let mut b = NetworkBuilder::new();
        let x = b.inputs(4);
        let identity = b.build([x[1], x[0]]);
        let mut b = NetworkBuilder::new();
        let x = b.inputs(4);
        let mut equals = |line: GateId, k: u64| {
            let (above, below) = (b.constant(t(k + 1)), b.constant(t(k - 1)));
            let early = b.lt(line, above);
            let late = b.lt(below, line);
            b.max2(early, late)
        };
        let (x3_is_3, x2_is_4) = (equals(x[3], 3), equals(x[2], 4));
        let gate = b.max2(x3_is_3, x2_is_4);
        let (gated1, gated0) = (b.min2(x[1], gate), b.min2(x[0], gate));
        let gated = b.build([gated1, gated0]);

        let silent = Time::INFINITY;
        let (mut output0, mut output1) = (Vec::new(), Vec::new());
        let mut extent = Extent::new(4, 4, false);
        let mut at = 0;
        while let Some(digits) = extent.next_volley() {
            if digits[2] == 4 && digits[3] == 3 {
                if digits[0] == 5 {
                    output1.push(at);
                }
                if digits[1] == 5 {
                    output0.push(at);
                }
            }
            at += 1;
        }
        assert_eq!(output1[..2], [MAX_PACKET + 66, MAX_PACKET + 72]);
        assert_eq!(output0[0], MAX_PACKET + 91);

        let (left, right) = (NetEvaluator::new(&identity), NetEvaluator::new(&gated));
        let result = check_equiv(&left, &right, 4).unwrap();
        let cex = result.counterexample().expect("∞ is not 4");
        assert_eq!(cex.inputs, vec![silent, t(0), t(4), t(3)]);
        assert_eq!(cex.left_outputs, vec![t(0), silent]);
        assert_eq!(cex.right_outputs, vec![t(0), t(4)]);
        assert_eq!(cex.output, 1);
        let volley_path = check_equiv(
            &VolleyPath(NetEvaluator::new(&identity)),
            &VolleyPath(NetEvaluator::new(&gated)),
            4,
        );
        assert_eq!(Ok(result), volley_path);
    }

    /// A network evaluator that counts the volleys it evaluates as
    /// lanes, the only path a stored walk's build takes.
    struct Counting<'a> {
        inner: NetEvaluator,
        evaluated: &'a std::cell::Cell<usize>,
    }

    impl Evaluator for Counting<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn input_width(&self) -> usize {
            self.inner.input_width()
        }

        fn output_width(&self) -> usize {
            self.inner.output_width()
        }

        fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
            self.evaluated.set(self.evaluated.get() + 1);
            self.inner.eval(inputs)
        }

        fn eval_lanes(&self, inputs: &[ByteBlock], lanes: usize, out: &mut [ByteBlock]) -> bool {
            let taken = self.inner.eval_lanes(inputs, lanes, out);
            if taken {
                self.evaluated.set(self.evaluated.get() + lanes);
            }
            taken
        }

        fn invariant(&self) -> bool {
            self.inner.invariant()
        }
    }

    /// A 2-sorter's normalized walk at window 3 is 10 volleys in four
    /// extents, one packet each: 4 × (2 + 2) blocks, 4 096 bytes. Three
    /// proofs walk the sorter once under a 4 096-byte cap and three
    /// times under 4 095; a proof at another window runs live.
    #[test]
    fn a_walk_is_stored_within_its_cap_and_for_its_window() {
        let net = st_net::sorting::sorting_network(2);
        let live = NetEvaluator::new(&net);
        for (cap, evaluations) in [(4096, 10), (4095, 30)] {
            let evaluated = std::cell::Cell::new(0);
            let counting = Counting {
                inner: NetEvaluator::new(&net),
                evaluated: &evaluated,
            };
            let reference = Reference::with_cap(counting, cap);
            for _ in 0..3 {
                let proof = reference.check_equiv(&live, 3).unwrap();
                assert_eq!(proof, check_equiv(&live, &live, 3).unwrap());
                assert_eq!(proof.proof().map(|p| p.volleys), Some(10));
            }
            assert_eq!(evaluated.get(), evaluations, "cap {cap}");
            // 4² − 3² + 1 volleys at window 2, walked live.
            let proof = reference.check_equiv(&live, 2).unwrap();
            assert_eq!(proof, check_equiv(&live, &live, 2).unwrap());
            assert_eq!(evaluated.get(), evaluations + 8, "cap {cap}");
        }
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
