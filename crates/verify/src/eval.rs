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
//! lanes cannot saturate, and hands that plan to a
//! [`Reference`](crate::equiv::Reference), whose stored walk it runs
//! over directly.

use std::cell::RefCell;

use st_core::{lane, FunctionTable, Time, Volley};
use st_grl::{GrlNetlist, GrlSim};
use st_kernel::{Scratch, MAX_PACKET};
use st_net::{GateKind, Network};
use st_tnn::Column;

/// The lane block [`Evaluator::eval_lanes`] reads and writes.
pub use st_kernel::ByteBlock;
/// The kernel plan [`Evaluator::plan`] hands out.
pub use st_kernel::Plan;

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

    /// The kernel plan behind [`Evaluator::eval_lanes`], for a caller
    /// that checks [`Plan::lane_input_limit`] once and runs blocks
    /// through [`Plan::eval_blocks`] itself: on every lane within the
    /// limit the plan gives exactly this evaluator's outputs. The
    /// default, `None`, is for an evaluator without one.
    fn plan(&self) -> Option<&Plan> {
        None
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

/// [`Network`] as an evaluator, running on the live cone of the
/// network's flattened [`Plan`] ([`Plan::live_cone`]: the gates some
/// output reads): packets whose finite inputs all lie within
/// [`Plan::lane_input_limit`] take the lane path ([`Plan::eval_blocks`]
/// or [`Plan::eval_packet`], the whole packet per pass), every other
/// volley the scalar [`Plan::eval`] — both bit-identical to
/// [`Network::eval`]. Two networks with equal live cones hand out equal
/// plans, which a [`Reference`](crate::equiv::Reference) proves once.
#[derive(Debug, Clone)]
pub struct NetEvaluator {
    plan: Plan,
    scratch: RefCell<Scratch>,
    invariant: bool,
}

impl NetEvaluator {
    /// Flattens a gate network into the live cone of its kernel plan
    /// (once; every later evaluation reuses it).
    #[must_use]
    pub fn new(net: &Network) -> NetEvaluator {
        // A finite constant is the only gate that ignores a shift of its
        // inputs: `min`, `max`, `lt` and `∞` commute with one, and so
        // does `inc`, saturating or not. The whole network is read, dead
        // gates too, so a proof's walk kind follows the network.
        let invariant = net
            .iter_gates()
            .all(|(_, kind)| !matches!(kind, GateKind::Const(t) if t.is_finite()));
        NetEvaluator {
            plan: Plan::from_network(net).live_cone(),
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

    fn plan(&self) -> Option<&Plan> {
        Some(&self.plan)
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
