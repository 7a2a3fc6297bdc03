//! Feedforward gate networks over the space-time primitives.
//!
//! A [`Network`] is the paper's *space-time computing network* (§ III.C): a
//! feedforward interconnection of functional blocks drawn from the
//! primitive set — `min`, `max`, `lt`, `inc` — plus primary inputs and
//! constants. Networks are built with a [`NetworkBuilder`], which
//! guarantees acyclicity by construction: a gate can only reference gates
//! that already exist, so the gate vector is always a valid topological
//! order.
//!
//! By Lemma 1 of the paper, every such network implements a space-time
//! function; the test suites verify this for every construction shipped in
//! this workspace.

use st_core::{CoreError, Time};

use crate::error::NetError;

/// Identifies a gate within one [`Network`].
///
/// Ids are only meaningful for the network (or builder) that produced
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(usize);

impl GateId {
    /// The position of the gate in the network's topological order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index.
    ///
    /// Only useful for diagnostics and serialization; passing a fabricated
    /// id to a builder or network that did not issue it yields
    /// [`NetError::UnknownGate`] or a panic, as documented per method.
    #[must_use]
    pub fn from_index(index: usize) -> GateId {
        GateId(index)
    }
}

/// The operation a gate performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GateKind {
    /// The `n`-th primary input (fan-in 0).
    Input(usize),
    /// A constant event time (fan-in 0). `Const(∞)` is the absent event;
    /// constants are also the configuration points for micro-weights.
    Const(Time),
    /// First-arriving event among the sources (n-ary `∧`).
    Min,
    /// Last-arriving event among the sources (n-ary `∨`).
    Max,
    /// First source iff it strictly precedes the second (fan-in 2, `≺`).
    Lt,
    /// The source delayed by the given number of unit times (fan-in 1).
    Inc(u64),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) sources: Vec<GateId>,
}

/// A feedforward space-time computing network.
///
/// # Examples
///
/// The Fig. 6(b) example network:
///
/// ```
/// use st_net::NetworkBuilder;
/// use st_core::Time;
///
/// let mut b = NetworkBuilder::new();
/// let a = b.input();
/// let x = b.input();
/// let c = b.input();
/// let a1 = b.inc(a, 1);
/// let m = b.min([a1, x])?;
/// let y = b.lt(m, c);
/// let net = b.build([y]);
///
/// let out = net.eval(&[Time::finite(0), Time::finite(3), Time::finite(2)])?;
/// assert_eq!(out, vec![Time::finite(1)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Two networks are equal when they have the same gates in the same
/// order, the same input count and the same output lines. That is
/// exactly when their netlist texts ([`crate::network_to_text`]) are
/// equal, for every network a [`NetworkBuilder`] builds: the text omits
/// only an input gate's line number, and the builder numbers input
/// lines in creation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    gates: Vec<Gate>,
    input_count: usize,
    outputs: Vec<GateId>,
}

impl Network {
    /// The number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The number of output lines.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The output gates, in output-line order.
    #[must_use]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// The total number of gates, including inputs and constants.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The kind of a gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownGate`] for a foreign id.
    pub fn kind(&self, id: GateId) -> Result<GateKind, NetError> {
        self.gates
            .get(id.0)
            .map(|g| g.kind)
            .ok_or(NetError::UnknownGate { id })
    }

    /// The fan-in of a gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownGate`] for a foreign id.
    pub fn sources(&self, id: GateId) -> Result<&[GateId], NetError> {
        self.gates
            .get(id.0)
            .map(|g| g.sources.as_slice())
            .ok_or(NetError::UnknownGate { id })
    }

    /// Iterates over `(id, kind)` pairs in topological order.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, GateKind)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i), g.kind))
    }

    /// Reconfigures a constant gate — the micro-weight programming
    /// mechanism of § IV.B ("configured ... prior to a s-t computation").
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownGate`] for a foreign id and
    /// [`NetError::NotAConstant`] if the gate is not a [`GateKind::Const`].
    pub fn set_constant(&mut self, id: GateId, value: Time) -> Result<(), NetError> {
        let gate = self
            .gates
            .get_mut(id.0)
            .ok_or(NetError::UnknownGate { id })?;
        match gate.kind {
            GateKind::Const(_) => {
                gate.kind = GateKind::Const(value);
                Ok(())
            }
            _ => Err(NetError::NotAConstant { id }),
        }
    }

    /// Evaluates the network on an input vector, returning one event time
    /// per output line.
    ///
    /// This is the *functional* evaluator: a single pass in topological
    /// order. The event-driven evaluator in [`crate::event`] computes the
    /// same result by propagating discrete events and additionally reports
    /// activity statistics; the two are cross-checked in the test suite.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// [`Network::input_count`].
    pub fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, CoreError> {
        let trace = self.trace(inputs)?;
        Ok(self.outputs.iter().map(|&o| trace[o.0]).collect())
    }

    /// Evaluates the network and returns the event time at *every* gate,
    /// indexed by [`GateId::index`] — the network-wide waveform, useful for
    /// debugging, visualization, and activity accounting.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// [`Network::input_count`].
    pub fn trace(&self, inputs: &[Time]) -> Result<Vec<Time>, CoreError> {
        if inputs.len() != self.input_count {
            return Err(CoreError::ArityMismatch {
                expected: self.input_count,
                actual: inputs.len(),
            });
        }
        let mut values = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let v = match gate.kind {
                GateKind::Input(n) => inputs[n],
                GateKind::Const(t) => t,
                GateKind::Min => Time::min_of(gate.sources.iter().map(|s| values[s.0])),
                GateKind::Max => Time::max_of(gate.sources.iter().map(|s| values[s.0])),
                GateKind::Lt => {
                    let a: Time = values[gate.sources[0].0];
                    let b: Time = values[gate.sources[1].0];
                    a.lt_gate(b)
                }
                GateKind::Inc(c) => values[gate.sources[0].0] + c,
            };
            values.push(v);
        }
        Ok(values)
    }

    /// Views one output line of the network as a [`st_core::SpaceTimeFunction`].
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range.
    #[must_use]
    pub fn as_function(&self, output: usize) -> NetworkFunction<'_> {
        assert!(
            output < self.outputs.len(),
            "output {output} out of range ({} outputs)",
            self.outputs.len()
        );
        NetworkFunction {
            network: self,
            output,
        }
    }
}

/// One output line of a [`Network`], viewed as a space-time function.
///
/// Created by [`Network::as_function`].
#[derive(Debug, Clone, Copy)]
pub struct NetworkFunction<'a> {
    network: &'a Network,
    output: usize,
}

impl st_core::SpaceTimeFunction for NetworkFunction<'_> {
    fn arity(&self) -> usize {
        self.network.input_count
    }

    fn apply(&self, inputs: &[Time]) -> Result<Time, CoreError> {
        let trace = self.network.trace(inputs)?;
        Ok(trace[self.network.outputs[self.output].0])
    }
}

/// Incremental constructor for [`Network`]s.
///
/// All gate-creating methods take previously returned [`GateId`]s, which
/// makes cycles unrepresentable. See [`Network`] for a usage example.
///
/// # Panics
///
/// All methods panic if handed a [`GateId`] that this builder did not
/// issue (a programming error, as ids are not transferable between
/// builders).
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    gates: Vec<Gate>,
    input_count: usize,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// A builder holding the first `len` gates of `network` (all of them
    /// if it has fewer), so a rewrite that reproduced that prefix can
    /// go on from where it first departs. Later inputs are numbered
    /// after the prefix's, as they would be had the prefix been built
    /// here.
    #[must_use]
    pub fn from_prefix(network: &Network, len: usize) -> NetworkBuilder {
        let gates = network.gates[..len.min(network.gates.len())].to_vec();
        let input_count = gates
            .iter()
            .filter(|g| matches!(g.kind, GateKind::Input(_)))
            .count();
        NetworkBuilder { gates, input_count }
    }

    fn check(&self, id: GateId) {
        assert!(
            id.0 < self.gates.len(),
            "gate id {} does not belong to this builder ({} gates)",
            id.0,
            self.gates.len()
        );
    }

    fn push(&mut self, kind: GateKind, sources: Vec<GateId>) -> GateId {
        for &s in &sources {
            self.check(s);
        }
        let id = GateId(self.gates.len());
        self.gates.push(Gate { kind, sources });
        id
    }

    /// Adds the next primary input and returns its gate.
    pub fn input(&mut self) -> GateId {
        let n = self.input_count;
        self.input_count += 1;
        self.push(GateKind::Input(n), Vec::new())
    }

    /// Adds `n` primary inputs and returns their gates in order.
    pub fn inputs(&mut self, n: usize) -> Vec<GateId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Adds a constant event time (a configuration point; see
    /// [`Network::set_constant`]).
    pub fn constant(&mut self, value: Time) -> GateId {
        self.push(GateKind::Const(value), Vec::new())
    }

    /// Adds an n-ary `min` gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyFanIn`] for an empty source list.
    pub fn min<I: IntoIterator<Item = GateId>>(&mut self, sources: I) -> Result<GateId, NetError> {
        let sources: Vec<GateId> = sources.into_iter().collect();
        if sources.is_empty() {
            return Err(NetError::EmptyFanIn);
        }
        if sources.len() == 1 {
            return Ok(sources[0]);
        }
        Ok(self.push(GateKind::Min, sources))
    }

    /// Adds an n-ary `max` gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyFanIn`] for an empty source list.
    pub fn max<I: IntoIterator<Item = GateId>>(&mut self, sources: I) -> Result<GateId, NetError> {
        let sources: Vec<GateId> = sources.into_iter().collect();
        if sources.is_empty() {
            return Err(NetError::EmptyFanIn);
        }
        if sources.len() == 1 {
            return Ok(sources[0]);
        }
        Ok(self.push(GateKind::Max, sources))
    }

    /// Adds a binary `min` gate (infallible convenience).
    pub fn min2(&mut self, a: GateId, b: GateId) -> GateId {
        self.push(GateKind::Min, vec![a, b])
    }

    /// Adds a binary `max` gate (infallible convenience).
    pub fn max2(&mut self, a: GateId, b: GateId) -> GateId {
        self.push(GateKind::Max, vec![a, b])
    }

    /// Adds an `lt` gate: output is `a`'s event iff it strictly precedes
    /// `b`'s.
    pub fn lt(&mut self, a: GateId, b: GateId) -> GateId {
        self.push(GateKind::Lt, vec![a, b])
    }

    /// Adds an `inc` gate delaying `a` by `delta` unit times.
    ///
    /// `delta == 0` is permitted and acts as a wire (the gate is still
    /// materialized, which keeps activity accounting explicit).
    pub fn inc(&mut self, a: GateId, delta: u64) -> GateId {
        self.push(GateKind::Inc(delta), vec![a])
    }

    /// The number of gates added so far.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The number of primary inputs added so far.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Finalizes the network with the given output lines.
    ///
    /// # Panics
    ///
    /// Panics if any output id was not issued by this builder.
    #[must_use]
    pub fn build<I: IntoIterator<Item = GateId>>(self, outputs: I) -> Network {
        let outputs: Vec<GateId> = outputs.into_iter().collect();
        for &o in &outputs {
            assert!(
                o.0 < self.gates.len(),
                "output id {} does not belong to this builder",
                o.0
            );
        }
        Network {
            gates: self.gates,
            input_count: self.input_count,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::verify_space_time;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// Builds the Fig. 6(b) example: y = lt(min(a + 1, b), c).
    fn fig6() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let x = b.input();
        let c = b.input();
        let a1 = b.inc(a, 1);
        let m = b.min([a1, x]).unwrap();
        let y = b.lt(m, c);
        b.build([y])
    }

    #[test]
    fn fig6_evaluates() {
        let net = fig6();
        assert_eq!(net.input_count(), 3);
        assert_eq!(net.output_count(), 1);
        assert_eq!(net.eval(&[t(0), t(3), t(2)]).unwrap(), vec![t(1)]);
        assert_eq!(net.eval(&[t(5), t(3), t(2)]).unwrap(), vec![Time::INFINITY]);
        assert_eq!(net.eval(&[t(0), t(3), Time::INFINITY]).unwrap(), vec![t(1)]);
    }

    #[test]
    fn fig6_is_a_space_time_function() {
        let net = fig6();
        verify_space_time(&net.as_function(0), 3, 2, None).unwrap();
    }

    #[test]
    fn trace_exposes_internal_waveform() {
        let net = fig6();
        let trace = net.trace(&[t(0), t(3), t(2)]).unwrap();
        // Gates: in0, in1, in2, inc, min, lt.
        assert_eq!(trace, vec![t(0), t(3), t(2), t(1), t(1), t(1)]);
    }

    #[test]
    fn eval_checks_arity() {
        let net = fig6();
        assert_eq!(
            net.eval(&[t(0)]),
            Err(CoreError::ArityMismatch {
                expected: 3,
                actual: 1
            })
        );
    }

    #[test]
    fn nary_gates_fold() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(4);
        let mn = b.min(ins.clone()).unwrap();
        let mx = b.max(ins).unwrap();
        let net = b.build([mn, mx]);
        assert_eq!(
            net.eval(&[t(4), t(1), t(7), t(2)]).unwrap(),
            vec![t(1), t(7)]
        );
    }

    #[test]
    fn unary_min_max_are_wires() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let m = b.min([x]).unwrap();
        assert_eq!(m, x); // no gate materialized
        let m = b.max([x]).unwrap();
        assert_eq!(m, x);
        assert_eq!(b.gate_count(), 1);
    }

    #[test]
    fn empty_fan_in_is_an_error() {
        let mut b = NetworkBuilder::new();
        assert_eq!(b.min([]), Err(NetError::EmptyFanIn));
        assert_eq!(b.max([]), Err(NetError::EmptyFanIn));
    }

    #[test]
    fn constants_participate() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let never = b.constant(Time::INFINITY);
        let gated = b.lt(x, never); // passes x through
        let net = b.build([gated]);
        assert_eq!(net.eval(&[t(5)]).unwrap(), vec![t(5)]);
    }

    #[test]
    fn set_constant_reconfigures() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let mu = b.constant(Time::INFINITY);
        let gated = b.lt(x, mu);
        let mut net = b.build([gated]);
        assert_eq!(net.eval(&[t(5)]).unwrap(), vec![t(5)]);
        net.set_constant(mu, Time::ZERO).unwrap();
        assert_eq!(net.eval(&[t(5)]).unwrap(), vec![Time::INFINITY]);
        // Reconfiguring a non-constant is rejected.
        assert_eq!(
            net.set_constant(gated, Time::ZERO),
            Err(NetError::NotAConstant { id: gated })
        );
        assert_eq!(
            net.set_constant(GateId::from_index(99), Time::ZERO),
            Err(NetError::UnknownGate {
                id: GateId::from_index(99)
            })
        );
    }

    #[test]
    fn introspection_accessors() {
        let net = fig6();
        assert_eq!(net.gate_count(), 6);
        assert_eq!(net.kind(GateId::from_index(0)).unwrap(), GateKind::Input(0));
        assert_eq!(net.kind(net.outputs()[0]).unwrap(), GateKind::Lt);
        assert_eq!(
            net.sources(GateId::from_index(3)).unwrap(),
            &[GateId::from_index(0)]
        );
        assert!(net.kind(GateId::from_index(99)).is_err());
        assert!(net.sources(GateId::from_index(99)).is_err());
        let kinds: Vec<GateKind> = net.iter_gates().map(|(_, k)| k).collect();
        assert_eq!(kinds.len(), 6);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_ids_panic_in_builder() {
        let mut b = NetworkBuilder::new();
        let _ = b.inc(GateId::from_index(7), 1);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_output_panics_in_build() {
        let b = NetworkBuilder::new();
        let _ = b.build([GateId::from_index(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn as_function_bounds_checked() {
        let net = fig6();
        let _ = net.as_function(1);
    }

    #[test]
    fn zero_delay_inc_is_a_wire_with_a_gate() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let w = b.inc(x, 0);
        let net = b.build([w]);
        assert_eq!(net.eval(&[t(3)]).unwrap(), vec![t(3)]);
        assert_eq!(net.gate_count(), 2);
    }

    #[test]
    fn a_builder_from_a_prefix_goes_on_where_the_prefix_ends() {
        let mut b = NetworkBuilder::new();
        let x0 = b.input();
        let _c = b.constant(t(2));
        let x1 = b.input();
        let m = b.min2(x0, x1);
        let net = b.build([m]);

        let mut b = NetworkBuilder::from_prefix(&net, 2);
        assert_eq!((b.gate_count(), b.input_count()), (2, 1));
        let x1 = b.input();
        let m = b.min2(x0, x1);
        assert_eq!(b.build([m]), net);
        assert_eq!(NetworkBuilder::from_prefix(&net, 9).build([m]), net);
    }
}
