//! Compilation of algebraic space-time networks into GRL netlists.
//!
//! This is the paper's punchline made executable (§ V.C): a network
//! designed in the spiking-neuron domain — any `st-net` [`Network`],
//! including synthesized Theorem 1 forms, bitonic sorters, whole SRM0
//! neurons, and WTA stages — maps gate-for-gate onto off-the-shelf CMOS:
//!
//! | algebraic gate | CMOS realization |
//! |---|---|
//! | `min` (n-ary) | AND chain (goes low with its first input) |
//! | `max` (n-ary) | OR chain (goes low with its last input) |
//! | `lt` | Fig. 16 latch gadget |
//! | `inc c` | `c`-stage shift register |
//! | `Const ∞` | wire tied high |
//! | `Const t` | configuration wire falling at cycle `t` |
//!
//! The cycle-exact equivalence between the compiled netlist and the
//! algebraic evaluator is checked in the tests and property suites.

use st_net::{GateKind, Network};

use crate::netlist::{GrlBuilder, GrlNetlist, WireId};

/// The most flip-flop stages one netlist may hold: an `inc c` gate is a
/// `c`-stage shift register, so a network whose delays sum past this is
/// refused before any stage is built. The limit is sized from memory:
/// 4 194 304 stages of 24-byte gates are 96 MiB of netlist, beside the
/// simulator's 11 bytes of state per wire. It is not sized from the
/// largest netlist the repo builds itself (6 144 stages, in
/// `exp24_throughput`), because `spacetime edit-distance` builds about
/// three stages per alignment cell from its arguments.
pub const MAX_DELAY_STAGES: u64 = 1 << 22;

/// Why a network could not be lowered to CMOS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrlCompileError {
    /// Index of the gate that could not be lowered.
    pub gate: usize,
    /// What stopped it.
    pub reason: GrlCompileReason,
}

/// What stopped a gate's lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrlCompileReason {
    /// The gate kind has no CMOS mapping (its debug rendering).
    /// `GateKind` is `#[non_exhaustive]`, so a future algebraic gate can
    /// reach the compiler before anyone has written its mapping.
    Unsupported(String),
    /// The gate's shift register would take the netlist to `stages`
    /// flip-flop stages, past [`MAX_DELAY_STAGES`].
    DelayTooLong {
        /// The netlist's stages with this gate's, saturating.
        stages: u64,
    },
}

impl std::fmt::Display for GrlCompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.reason {
            GrlCompileReason::Unsupported(kind) => write!(
                f,
                "gate g{} has no GRL mapping (unsupported kind {kind}); \
                 the § V.C table covers min/max/lt/inc/const only",
                self.gate
            ),
            GrlCompileReason::DelayTooLong { stages } => write!(
                f,
                "gate g{} delays too long for a GRL netlist: its shift \
                 register would take the netlist to {stages} flip-flop \
                 stages, past the limit of {MAX_DELAY_STAGES}",
                self.gate
            ),
        }
    }
}

impl std::error::Error for GrlCompileError {}

/// Compiles an algebraic network into a gate-level GRL netlist.
///
/// # Examples
///
/// ```
/// use st_core::Time;
/// use st_net::NetworkBuilder;
/// use st_grl::{compile_network, GrlSim};
///
/// // Fig. 6(b) as CMOS: y = lt(min(a + 1, b), c).
/// let mut b = NetworkBuilder::new();
/// let a = b.input();
/// let x = b.input();
/// let c = b.input();
/// let a1 = b.inc(a, 1);
/// let m = b.min([a1, x])?;
/// let y = b.lt(m, c);
/// let net = b.build([y]);
///
/// let netlist = compile_network(&net);
/// let inputs = [Time::finite(0), Time::finite(3), Time::finite(2)];
/// let report = GrlSim::new().run(&netlist, &inputs)?;
/// assert_eq!(report.outputs, net.eval(&inputs)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// # Panics
///
/// Panics where [`try_compile_network`], the fallible form, returns an
/// error: on a gate kind with no CMOS mapping (every kind `st-net` can
/// build today has one) or on delays summing past [`MAX_DELAY_STAGES`].
#[must_use]
pub fn compile_network(network: &Network) -> GrlNetlist {
    match try_compile_network(network) {
        Ok(netlist) => netlist,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`compile_network`]: a gate that cannot be lowered comes
/// back as a [`GrlCompileError`] naming it instead of a panic.
///
/// # Errors
///
/// [`GrlCompileError`] when a gate has no entry in the § V.C mapping
/// table, or when the network's delays sum past [`MAX_DELAY_STAGES`]
/// flip-flop stages; then nothing is built.
pub fn try_compile_network(network: &Network) -> Result<GrlNetlist, GrlCompileError> {
    check_delay_stages(network)?;
    let mut b = GrlBuilder::new();
    let mut wires: Vec<WireId> = Vec::with_capacity(network.gate_count());
    for (id, kind) in network.iter_gates() {
        let sources = network.sources(id).expect("id from iter_gates");
        let srcs: Vec<WireId> = sources.iter().map(|s| wires[s.index()]).collect();
        let wire = match kind {
            GateKind::Input(_) => b.input(),
            GateKind::Const(t) => match t.value() {
                None => b.high(),
                Some(c) => b.fall_at(c),
            },
            GateKind::Min => b.and_all(&srcs),
            GateKind::Max => b.or_all(&srcs),
            GateKind::Lt => b.lt(srcs[0], srcs[1]),
            GateKind::Inc(c) => b.shift_register(srcs[0], c),
            // GateKind is #[non_exhaustive]; any future algebraic gate
            // needs an explicit CMOS mapping here.
            other => {
                return Err(GrlCompileError {
                    gate: id.index(),
                    reason: GrlCompileReason::Unsupported(format!("{other:?}")),
                })
            }
        };
        wires.push(wire);
    }
    let outputs = network.outputs().iter().map(|o| wires[o.index()]);
    let netlist = b.build(outputs);
    // Static pre-pass (debug builds only): whatever the source network
    // computes, the netlist must be structurally well-formed CMOS.
    #[cfg(debug_assertions)]
    {
        let report = crate::lint::lint_netlist(&netlist);
        assert!(
            !report.has_structural_errors(),
            "compile_network produced a structurally invalid netlist:\n{}",
            report.render()
        );
    }
    Ok(netlist)
}

/// Refuses a network whose shift registers would hold more than
/// [`MAX_DELAY_STAGES`] flip-flops, naming the `inc` gate whose delay
/// takes the running total past the limit.
fn check_delay_stages(network: &Network) -> Result<(), GrlCompileError> {
    let mut stages = 0u64;
    for (id, kind) in network.iter_gates() {
        if let GateKind::Inc(c) = kind {
            stages = stages.saturating_add(c);
            if stages > MAX_DELAY_STAGES {
                return Err(GrlCompileError {
                    gate: id.index(),
                    reason: GrlCompileReason::DelayTooLong { stages },
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::GrlSim;
    use st_core::{enumerate_inputs, FunctionTable, Time};
    use st_net::synth::{synthesize, SynthesisOptions};
    use st_net::NetworkBuilder;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn assert_cycle_exact(net: &Network, window: u64) {
        let netlist = compile_network(net);
        let sim = GrlSim::new();
        for inputs in enumerate_inputs(net.input_count(), window) {
            let algebraic = net.eval(&inputs).unwrap();
            let cmos = sim.run(&netlist, &inputs).unwrap().outputs;
            assert_eq!(cmos, algebraic, "at {inputs:?}");
        }
    }

    #[test]
    fn fig6_compiles_cycle_exactly() {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let x = b.input();
        let c = b.input();
        let a1 = b.inc(a, 1);
        let m = b.min([a1, x]).unwrap();
        let y = b.lt(m, c);
        assert_cycle_exact(&b.build([y]), 4);
    }

    #[test]
    fn synthesized_table_compiles_cycle_exactly() {
        let table = FunctionTable::from_rows(
            2,
            vec![
                (vec![t(0), t(1)], t(2)),
                (vec![t(1), t(0)], t(3)),
                (vec![t(0), Time::INFINITY], t(1)),
            ],
        )
        .unwrap();
        let net = synthesize(&table, SynthesisOptions::default());
        assert_cycle_exact(&net, 4);
        let pure = synthesize(&table, SynthesisOptions::pure());
        assert_cycle_exact(&pure, 4);
    }

    #[test]
    fn sorter_compiles_cycle_exactly() {
        let net = st_net::sorting::sorting_network(4);
        assert_cycle_exact(&net, 3);
    }

    #[test]
    fn wta_compiles_cycle_exactly() {
        let net = st_net::wta::wta_network(3, 2);
        assert_cycle_exact(&net, 3);
    }

    #[test]
    fn srm0_style_network_compiles_cycle_exactly() {
        // A miniature Fig. 12 neuron built from primitives: two inputs,
        // unit step responses at +1, θ = 2 → fires one tick after the
        // later input (sorted_ups[1] with no down steps).
        use st_net::sorting::bitonic_sort_into;
        let mut b = NetworkBuilder::new();
        let xs = b.inputs(2);
        let ups: Vec<_> = xs.iter().map(|&x| b.inc(x, 1)).collect();
        let sorted = bitonic_sort_into(&mut b, &ups);
        let never = b.constant(Time::INFINITY);
        let fire = b.lt(sorted[1], never);
        assert_cycle_exact(&b.build([fire]), 3);
    }

    #[test]
    fn constants_compile_to_high_and_fall_wires() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let inf = b.constant(Time::INFINITY);
        let k = b.constant(t(2));
        let gated = b.lt(x, inf);
        let capped = b.min([x, k]).unwrap();
        let net = b.build([gated, capped]);
        assert_cycle_exact(&net, 5);
    }

    #[test]
    fn every_buildable_network_compiles_fallibly() {
        // st-net can only express the § V.C-mapped kinds today, so the
        // fallible path always succeeds on built networks; the error
        // type itself renders the gate it names.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.inc(x, 2);
        let net = b.build([y]);
        assert!(crate::compile::try_compile_network(&net).is_ok());
        let e = crate::compile::GrlCompileError {
            gate: 7,
            reason: GrlCompileReason::Unsupported("Widget".to_owned()),
        };
        assert!(e.to_string().contains("g7"), "{e}");
        assert!(e.to_string().contains("Widget"), "{e}");
    }

    /// Delays are refused at the gate whose stages pass the limit, with
    /// nothing past it built: a chain exactly at the limit compiles.
    #[test]
    fn delays_past_the_stage_limit_are_refused() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let half = b.inc(x, MAX_DELAY_STAGES / 2);
        let full = b.inc(half, MAX_DELAY_STAGES / 2);
        let at_limit = b.build([full]);
        assert_eq!(check_delay_stages(&at_limit), Ok(()));

        let mut b = NetworkBuilder::new();
        let x = b.input();
        let half = b.inc(x, MAX_DELAY_STAGES / 2);
        let full = b.inc(half, MAX_DELAY_STAGES / 2);
        let past = b.inc(full, 1);
        let e = try_compile_network(&b.build([past])).unwrap_err();
        assert_eq!(e.gate, 3);
        assert_eq!(
            e.reason,
            GrlCompileReason::DelayTooLong {
                stages: MAX_DELAY_STAGES + 1
            }
        );

        let mut b = NetworkBuilder::new();
        let x = b.input();
        let one = b.inc(x, 1);
        let huge = b.inc(one, u64::MAX);
        let e = try_compile_network(&b.build([huge])).unwrap_err();
        assert_eq!(e.gate, 2);
        assert_eq!(
            e.reason,
            GrlCompileReason::DelayTooLong { stages: u64::MAX }
        );
        assert!(e.to_string().contains("too long"), "{e}");
        assert!(!e.to_string().contains("no GRL mapping"), "{e}");
    }

    #[test]
    fn census_reflects_the_mapping() {
        let mut b = NetworkBuilder::new();
        let xs = b.inputs(3);
        let mn = b.min(xs.clone()).unwrap(); // 3-ary → 2 AND gates
        let mx = b.max(xs.clone()).unwrap(); // 3-ary → 2 OR gates
        let less = b.lt(mn, mx);
        let slow = b.inc(less, 3); // 3 flip-flops
        let net = b.build([slow]);
        let netlist = compile_network(&net);
        assert_eq!(netlist.gate_census(), (2, 2, 1, 3));
    }
}
