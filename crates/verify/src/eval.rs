//! Uniform evaluation adapters over every artifact representation.
//!
//! The bounded equivalence checker ([`crate::equiv`]) compares two
//! black-box spike-time functions volley by volley; this module gives
//! each representation in the workspace — [`FunctionTable`],
//! [`Network`], [`GrlNetlist`], and [`Column`] — the same `Evaluator`
//! face, so any pair can be checked against any other.
//!
//! The checker hands volleys over in packets of up to [`MAX_PACKET`],
//! as lane blocks ([`Evaluator::eval_lanes`]) where every time fits a
//! lane byte and as volleys ([`Evaluator::eval_packet`]) otherwise.
//! Tables, GRL simulation and columns are the reference semantics being
//! checked against, so they take no packet as lanes and evaluate one
//! volley at a time ([`Evaluator::eval`]); a network runs on its
//! flattened `st-kernel` plan, a whole packet per pass wherever the
//! lanes cannot saturate. A [`Reference`] stores one side's outputs over
//! a window's domain, so many proofs against that side evaluate it
//! once.

use std::cell::RefCell;

use st_core::{lane, FunctionTable, Time, Volley};
use st_grl::{GrlNetlist, GrlSim};
use st_kernel::{Plan, Scratch, MAX_PACKET};
use st_net::{GateKind, Network};
use st_tnn::Column;

/// The lane block [`Evaluator::eval_lanes`] reads and writes.
pub use st_kernel::ByteBlock;

/// A multi-output spike-time function evaluated one volley — or one
/// packet of volleys — at a time.
pub trait Evaluator {
    /// A short stable tag ("table", "net", "grl", "column", "spec")
    /// naming the representation in proofs and counterexamples.
    fn name(&self) -> &'static str;

    /// The number of input lines.
    fn input_width(&self) -> usize;

    /// The number of output lines.
    fn output_width(&self) -> usize;

    /// Evaluates one input volley.
    ///
    /// # Errors
    ///
    /// Returns a message when the underlying engine rejects the volley
    /// (arity mismatch or internal failure); the checker treats this as
    /// an operational error, not a refutation.
    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String>;

    /// Evaluates a packet of up to [`MAX_PACKET`] volleys, writing the
    /// output volley of `volleys[i]` to `out[i]`. The default calls
    /// [`Evaluator::eval`] once per volley, in order.
    ///
    /// # Errors
    ///
    /// Returns the index of the first volley whose evaluation failed,
    /// with its message; `out` holds the outputs of every earlier
    /// volley, so a caller comparing lanes in order sees exactly what a
    /// volley-at-a-time walk would.
    fn eval_packet(&self, volleys: &[Volley], out: &mut [Volley]) -> Result<(), (usize, String)> {
        eval_each(volleys, out, |inputs| self.eval(inputs))
    }

    /// Evaluates a lane-packed packet of `lanes` volleys, at most
    /// [`MAX_PACKET`]: byte `j` of `inputs[line]` is volley `j`'s
    /// [`lane`]-encoded time on `line`, and output `k` of volley `j` goes
    /// to byte `j` of `out[k]`, exactly encoded. Bytes past `lanes` may
    /// hold anything, in `inputs` and `out` alike.
    ///
    /// Returns `false`, leaving `out` unspecified, when this evaluator
    /// cannot take the packet as lanes — for instance because an output
    /// could leave the lane domain; the caller then evaluates it through
    /// [`Evaluator::eval_packet`]. Lane evaluation never fails. The
    /// default takes no packet as lanes.
    fn eval_lanes(&self, inputs: &[ByteBlock], lanes: usize, out: &mut [ByteBlock]) -> bool {
        let _ = (inputs, lanes, out);
        false
    }

    /// Whether the function commutes with time shifts, `f(x + c) =
    /// f(x) + c` for every volley `x` and `c ≥ 0` (§ III.C), so that a
    /// proof may skip every volley that is a shifted copy of another.
    /// The default, `false`, is always safe; an evaluator answers `true`
    /// only where `tests/invariance_properties.rs` checks it.
    fn invariant(&self) -> bool {
        false
    }
}

/// The volley-at-a-time packet walk behind the default
/// [`Evaluator::eval_packet`].
fn eval_each(
    volleys: &[Volley],
    out: &mut [Volley],
    eval: impl Fn(&[Time]) -> Result<Vec<Time>, String>,
) -> Result<(), (usize, String)> {
    for (i, (volley, slot)) in volleys.iter().zip(out).enumerate() {
        *slot = Volley::new(eval(volley.times()).map_err(|e| (i, e))?);
    }
    Ok(())
}

/// Overwrites `slot` with `times`, reusing its allocation.
pub(crate) fn refill(slot: &mut Volley, times: impl Iterator<Item = Time>) {
    let mut buffer = Vec::from(std::mem::take(slot));
    buffer.clear();
    buffer.extend(times);
    *slot = Volley::new(buffer);
}

/// [`FunctionTable`] as a single-output evaluator (Theorem 1 minterm
/// semantics via [`FunctionTable::eval`]).
#[derive(Debug, Clone, Copy)]
pub struct TableEvaluator<'a> {
    table: &'a FunctionTable,
    name: &'static str,
}

impl<'a> TableEvaluator<'a> {
    /// Wraps a table under the default tag `"table"`.
    #[must_use]
    pub fn new(table: &'a FunctionTable) -> TableEvaluator<'a> {
        TableEvaluator {
            table,
            name: "table",
        }
    }

    /// Wraps a table under the tag `"spec"` (for `--against` checks).
    #[must_use]
    pub fn spec(table: &'a FunctionTable) -> TableEvaluator<'a> {
        TableEvaluator {
            table,
            name: "spec",
        }
    }
}

impl Evaluator for TableEvaluator<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn input_width(&self) -> usize {
        self.table.arity()
    }

    fn output_width(&self) -> usize {
        1
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        self.table
            .eval(inputs)
            .map(|t| vec![t])
            .map_err(|e| e.to_string())
    }

    /// A table is normalized by definition: it matches a volley's
    /// pattern up to its first spike and adds that spike's time back.
    fn invariant(&self) -> bool {
        true
    }
}

/// [`Network`] as an evaluator, running on the network's flattened
/// [`Plan`]: packets whose finite inputs all lie within
/// [`Plan::lane_input_limit`] take the lane path ([`Plan::eval_blocks`]
/// or [`Plan::eval_packet`], the whole packet per pass), every other
/// volley the scalar [`Plan::eval`] — both bit-identical to
/// [`Network::eval`].
#[derive(Debug, Clone)]
pub struct NetEvaluator {
    plan: Plan,
    scratch: RefCell<Scratch>,
    invariant: bool,
}

impl NetEvaluator {
    /// Flattens a gate network into its kernel plan (once; every later
    /// evaluation reuses it).
    #[must_use]
    pub fn new(net: &Network) -> NetEvaluator {
        // A finite constant is the only gate that ignores a shift of its
        // inputs: `min`, `max`, `lt` and `∞` commute with one, and so
        // does `inc`, saturating or not.
        let invariant = net
            .iter_gates()
            .all(|(_, kind)| !matches!(kind, GateKind::Const(t) if t.is_finite()));
        NetEvaluator {
            plan: Plan::from_network(net),
            scratch: RefCell::default(),
            invariant,
        }
    }
}

impl Evaluator for NetEvaluator {
    fn name(&self) -> &'static str {
        "net"
    }

    fn input_width(&self) -> usize {
        self.plan.input_count()
    }

    fn output_width(&self) -> usize {
        self.plan.output_width()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        self.plan.eval(inputs).map_err(|e| e.to_string())
    }

    fn eval_packet(&self, volleys: &[Volley], out: &mut [Volley]) -> Result<(), (usize, String)> {
        let width = self.plan.input_count();
        if (1..=MAX_PACKET).contains(&volleys.len())
            && volleys.iter().all(|v| v.width() == width)
            && self.plan.lane_capable(volleys)
        {
            self.plan
                .eval_packet(&mut self.scratch.borrow_mut(), volleys, out);
            Ok(())
        } else {
            eval_each(volleys, out, |inputs| self.eval(inputs))
        }
    }

    fn eval_lanes(&self, inputs: &[ByteBlock], lanes: usize, out: &mut [ByteBlock]) -> bool {
        let Some(limit) = self.plan.lane_input_limit() else {
            return false;
        };
        let fits = |&byte: &u8| byte == lane::INF || u64::from(byte) <= limit;
        let capable = inputs.len() == self.plan.input_count()
            && out.len() == self.plan.output_width()
            && inputs
                .iter()
                .all(|block| block.iter().take(lanes).all(fits));
        if capable {
            self.plan
                .eval_blocks(&mut self.scratch.borrow_mut(), inputs, out);
        }
        capable
    }

    fn invariant(&self) -> bool {
        self.invariant
    }
}

/// [`GrlNetlist`] as an evaluator (cycle-accurate CMOS race-logic
/// simulation via [`GrlSim`]).
#[derive(Debug, Clone, Copy)]
pub struct GrlEvaluator<'a> {
    netlist: &'a GrlNetlist,
}

impl<'a> GrlEvaluator<'a> {
    /// Wraps a GRL netlist.
    #[must_use]
    pub fn new(netlist: &'a GrlNetlist) -> GrlEvaluator<'a> {
        GrlEvaluator { netlist }
    }
}

impl Evaluator for GrlEvaluator<'_> {
    fn name(&self) -> &'static str {
        "grl"
    }

    fn input_width(&self) -> usize {
        self.netlist.input_count()
    }

    fn output_width(&self) -> usize {
        self.netlist.outputs().len()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        GrlSim::new()
            .run(self.netlist, inputs)
            .map(|r| r.outputs)
            .map_err(|e| e.to_string())
    }
}

/// [`Column`] as an evaluator (SRM0 neurons plus lateral inhibition).
#[derive(Debug, Clone)]
pub struct ColumnEvaluator<'a> {
    column: &'a Column,
}

impl<'a> ColumnEvaluator<'a> {
    /// Wraps a TNN column.
    #[must_use]
    pub fn new(column: &'a Column) -> ColumnEvaluator<'a> {
        ColumnEvaluator { column }
    }
}

impl Evaluator for ColumnEvaluator<'_> {
    fn name(&self) -> &'static str {
        "column"
    }

    fn input_width(&self) -> usize {
        self.column.input_width()
    }

    fn output_width(&self) -> usize {
        self.column.output_width()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        if inputs.len() != self.column.input_width() {
            return Err(format!(
                "column expects {} input(s), got {}",
                self.column.input_width(),
                inputs.len()
            ));
        }
        let out = self.column.eval(&Volley::new(inputs.to_vec()));
        Ok(out.times().to_vec())
    }
}

/// The most bytes a [`Reference`] stores: one per output line per volley
/// of its window's domain. A larger domain is evaluated live.
pub const MAX_REFERENCE_BYTES: usize = 64 << 20;

/// An evaluator whose outputs over one window's domain, `{0, …, window,
/// ∞}^width`, are stored as they are first computed, so every later
/// proof against it reads them instead of evaluating again. Outputs
/// are stored lane-packed, one [`lane`] byte per output line per volley,
/// at the volley's position in [`st_core::enumerate_inputs`] order, and
/// the store is allocated on first use. Lane packets
/// ([`Evaluator::eval_lanes`]) are read from and stored into it byte
/// for byte; a lane packet with an unstored volley is taken as lanes
/// only when the wrapped evaluator takes it.
///
/// A volley outside the domain, or one with an output past
/// [`lane::MAX_FINITE`], is evaluated live every time; so is every
/// volley when the domain's table would exceed
/// [`MAX_REFERENCE_BYTES`]. Either way the outputs are exactly the
/// wrapped evaluator's. [`Evaluator::eval`] is always live.
#[derive(Debug)]
pub struct Reference<E> {
    inner: E,
    window: u64,
    table: RefCell<Table>,
}

/// The stored half of a [`Reference`].
#[derive(Debug)]
struct Table {
    /// Volleys in the domain, or `None` when the table would exceed the
    /// cap and every evaluation is live.
    volleys: Option<usize>,
    /// `output_width` lane bytes per domain position.
    bytes: Vec<u8>,
    /// Whether each domain position's bytes are stored.
    stored: Vec<bool>,
    /// The current packet's domain positions.
    positions: Vec<Option<usize>>,
}

impl<E: Evaluator> Reference<E> {
    /// Stores `inner`'s outputs over the domain of `window`, up to
    /// [`MAX_REFERENCE_BYTES`].
    #[must_use]
    pub fn new(inner: E, window: u64) -> Reference<E> {
        Reference::with_cap(inner, window, MAX_REFERENCE_BYTES)
    }

    fn with_cap(inner: E, window: u64, cap: usize) -> Reference<E> {
        let volleys = window
            .checked_add(2)
            .zip(u32::try_from(inner.input_width()).ok())
            .and_then(|(base, width)| base.checked_pow(width))
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| {
                n.checked_mul(inner.output_width())
                    .is_some_and(|b| b <= cap)
            });
        Reference {
            inner,
            window,
            table: RefCell::new(Table {
                volleys,
                bytes: Vec::new(),
                stored: Vec::new(),
                positions: Vec::with_capacity(MAX_PACKET),
            }),
        }
    }

    /// The position in the domain of the volley whose times are
    /// `values` (line 0 first, `None` for `∞`), or `None` outside it.
    fn position<I>(&self, values: I) -> Option<usize>
    where
        I: DoubleEndedIterator<Item = Option<u64>> + ExactSizeIterator,
    {
        if values.len() != self.inner.input_width() {
            return None;
        }
        let base = self.window + 2;
        // Within a domain that fits the cap, no position overflows.
        let at = values.rev().try_fold(0, |at, value| {
            let digit = match value {
                None => self.window + 1,
                Some(v) if v <= self.window => v,
                Some(_) => return None,
            };
            Some(at * base + digit)
        })?;
        usize::try_from(at).ok()
    }

    /// The table, allocated on first use, or `None` when every
    /// evaluation is live.
    fn table(&self) -> Option<std::cell::RefMut<'_, Table>> {
        let mut table = self.table.borrow_mut();
        let domain = table.volleys?;
        if table.stored.is_empty() {
            table.bytes = vec![0; domain * self.inner.output_width()];
            table.stored = vec![false; domain];
        }
        Some(table)
    }
}

impl<E: Evaluator> Evaluator for Reference<E> {
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
        self.inner.eval(inputs)
    }

    /// Reads the packet from the table when every volley in it is
    /// stored; otherwise evaluates it live and stores what it can.
    fn eval_packet(&self, volleys: &[Volley], out: &mut [Volley]) -> Result<(), (usize, String)> {
        let Some(mut table) = self.table() else {
            return self.inner.eval_packet(volleys, out);
        };
        let width = self.inner.output_width();
        let Table {
            bytes,
            stored,
            positions,
            ..
        } = &mut *table;
        positions.clear();
        positions.extend(
            volleys
                .iter()
                .map(|v| self.position(v.times().iter().map(|t| t.value()))),
        );
        if positions.iter().all(|at| at.is_some_and(|at| stored[at])) {
            for (at, slot) in positions.iter().flatten().zip(out) {
                let row = &bytes[at * width..(at + 1) * width];
                refill(slot, row.iter().map(|&byte| lane::decode(byte)));
            }
            return Ok(());
        }
        let result = self.inner.eval_packet(volleys, out);
        let evaluated = result
            .as_ref()
            .map_or_else(|(at, _)| *at, |()| volleys.len());
        for (at, slot) in positions.iter().zip(out.iter()).take(evaluated) {
            let Some(at) = *at else { continue };
            let times = slot.times();
            let row = &mut bytes[at * width..(at + 1) * width];
            // A row is marked stored only once every byte is written.
            let encoded = times.len() == width
                && row
                    .iter_mut()
                    .zip(times)
                    .all(|(byte, &t)| lane::encode(t).map(|b| *byte = b).is_some());
            stored[at] |= encoded;
        }
        result
    }

    fn eval_lanes(&self, inputs: &[ByteBlock], lanes: usize, out: &mut [ByteBlock]) -> bool {
        let Some(mut table) = self.table() else {
            return self.inner.eval_lanes(inputs, lanes, out);
        };
        let width = self.inner.output_width();
        let Table {
            bytes,
            stored,
            positions,
            ..
        } = &mut *table;
        positions.clear();
        positions.extend((0..lanes).map(|j| {
            self.position(inputs.iter().map(|block| {
                let byte = block[j];
                (byte != lane::INF).then_some(u64::from(byte))
            }))
        }));
        let all_stored =
            out.len() == width && positions.iter().all(|at| at.is_some_and(|at| stored[at]));
        if all_stored {
            for (j, &at) in positions.iter().flatten().enumerate() {
                for (block, &byte) in out.iter_mut().zip(&bytes[at * width..(at + 1) * width]) {
                    block[j] = byte;
                }
            }
            return true;
        }
        if !self.inner.eval_lanes(inputs, lanes, out) {
            return false;
        }
        for (j, at) in positions.iter().enumerate() {
            let Some(at) = *at else { continue };
            for (byte, block) in bytes[at * width..(at + 1) * width]
                .iter_mut()
                .zip(out.iter())
            {
                *byte = block[j];
            }
            stored[at] = true;
        }
        true
    }

    fn invariant(&self) -> bool {
        self.inner.invariant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equiv;
    use st_net::sorting::sorting_network;
    use st_net::NetworkBuilder;
    use std::cell::Cell;

    /// A network evaluator that counts the volleys reaching it.
    struct Counting<'a> {
        inner: NetEvaluator,
        evaluated: &'a Cell<usize>,
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

        fn eval_packet(
            &self,
            volleys: &[Volley],
            out: &mut [Volley],
        ) -> Result<(), (usize, String)> {
            self.evaluated.set(self.evaluated.get() + volleys.len());
            self.inner.eval_packet(volleys, out)
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

    /// A 2-sorter at window 3 has 5² = 25 volleys and 2 outputs: a
    /// 50-byte table. Three proofs against it evaluate the sorter on
    /// the 10 walked volleys once; under a 49-byte cap, on every proof.
    #[test]
    fn a_reference_evaluates_stored_volleys_once_and_the_rest_live() {
        let net = sorting_network(2);
        let live = NetEvaluator::new(&net);
        for (cap, evaluations) in [(50, 10), (49, 30)] {
            let evaluated = Cell::new(0);
            let counting = Counting {
                inner: NetEvaluator::new(&net),
                evaluated: &evaluated,
            };
            let reference = Reference::with_cap(counting, 3, cap);
            for _ in 0..3 {
                let proof = check_equiv(&reference, &live, 3).unwrap();
                assert_eq!(proof, check_equiv(&live, &live, 3).unwrap());
                assert_eq!(proof.proof().map(|p| p.volleys), Some(10));
            }
            assert_eq!(evaluated.get(), evaluations, "cap {cap}");
        }
    }

    /// `inc(x, 252)` reads 255 and 256 at `x = 3, 4`, past the lane
    /// bytes, so those two volleys are evaluated on every proof.
    #[test]
    fn outputs_past_the_lane_domain_stay_live() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d = b.inc(x, 252);
        let delayed = b.build([d]);
        // Equal through window 4 but not shift-invariant, so every proof
        // walks all six volleys.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d = b.inc(x, 252);
        let ceiling = b.constant(Time::finite(300));
        let l = b.lt(d, ceiling);
        let capped = NetEvaluator::new(&b.build([l]));

        let evaluated = Cell::new(0);
        let reference = Reference::new(
            Counting {
                inner: NetEvaluator::new(&delayed),
                evaluated: &evaluated,
            },
            4,
        );
        for _ in 0..2 {
            let proof = check_equiv(&reference, &capped, 4).unwrap();
            assert_eq!(proof.proof().map(|p| p.volleys), Some(6));
        }
        assert_eq!(evaluated.get(), 6 + 2);
    }
}
