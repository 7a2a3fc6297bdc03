//! Property battery for the st-opt passes: on random (deliberately
//! redundancy-prone) networks and random tabulated neurons, every pass
//! is idempotent, every pass preserves semantics under bounded
//! equivalence, and the verified pass manager never accepts a rewrite
//! it cannot prove.

mod common;

use common::arbitrary::{arb_network, arb_neuron};
use proptest::prelude::*;
use spacetime::core::FunctionTable;
use spacetime::net::Network;
use spacetime::opt::{optimize_network, passes, OptOptions, Pass, ALL_PASSES};
use spacetime::verify::equiv::{check_equiv, EquivResult};
use spacetime::verify::eval::{NetEvaluator, TableEvaluator};

/// A pass's candidate: `None` when it would reproduce its input.
fn apply(pass: Pass, network: &Network) -> Option<Network> {
    match pass {
        Pass::ConstantFold => passes::constant_fold(network),
        Pass::RelationalFold => passes::relational_fold(network),
        Pass::FuseDelayChains => passes::fuse_delay_chains(network),
        Pass::ShareSubexpressions => passes::share_subexpressions(network),
        Pass::EliminateDead => passes::eliminate_dead(network),
        Pass::MinimizeTable => None,
    }
}

fn assert_net_equiv(left: &Network, right: &Network) -> Result<(), TestCaseError> {
    let l = NetEvaluator::new(left);
    let r = NetEvaluator::new(right);
    match check_equiv(&l, &r, 4).map_err(TestCaseError::fail)? {
        EquivResult::Proved(_) => Ok(()),
        EquivResult::Refuted(cex) => Err(TestCaseError::fail(format!(
            "pass changed semantics: {}",
            cex.volley_line()
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every network pass, applied alone, proposes a candidate only
    /// when it differs from the input, is idempotent (a second
    /// application proposes nothing) and preserves semantics
    /// exhaustively over the window-4 input domain.
    #[test]
    fn every_network_pass_is_idempotent_and_semantics_preserving(net in arb_network(2, 1u64..4)) {
        for pass in ALL_PASSES {
            if pass == Pass::MinimizeTable {
                continue; // table-only; covered below
            }
            let Some(once) = apply(pass, &net) else {
                continue;
            };
            prop_assert_ne!(&once, &net, "{} proposed its own input", pass.name());
            prop_assert_eq!(apply(pass, &once), None, "{} is not idempotent", pass.name());
            assert_net_equiv(&net, &once)?;
        }
    }

    /// The full default pipeline through the verified manager: never
    /// grows the network, never gets a pass rejected, and the final
    /// artifact is exhaustively equivalent to the input.
    #[test]
    fn default_pipeline_is_verified_and_monotone(net in arb_network(2, 1u64..4)) {
        let outcome = optimize_network(&net, &OptOptions::default())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(outcome.rejected(), 0, "report:\n{}", outcome.render());
        prop_assert!(outcome.after <= outcome.before);
        let spacetime::verify::Artifact::Net(optimized) = &outcome.artifact else {
            return Err(TestCaseError::fail("network came back as a non-net"));
        };
        assert_net_equiv(&net, optimized)?;
    }

    /// Table minimization on tabulated random neurons: idempotent, and
    /// the minimized table matches the original on every volley of the
    /// table's own required window.
    #[test]
    fn minimize_table_is_idempotent_and_semantics_preserving(neuron in arb_neuron()) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let (minimized, dropped) = passes::minimize_table(&table);
        prop_assert!(minimized.len() + dropped == table.len());
        let (again, dropped_again) = passes::minimize_table(&minimized);
        prop_assert_eq!(dropped_again, 0, "minimize_table is not idempotent");
        prop_assert_eq!(again.to_text(), minimized.to_text());
        let window = spacetime::verify::required_window(&table);
        let left = TableEvaluator::new(&table);
        let right = TableEvaluator::spec(&minimized);
        match check_equiv(&left, &right, window).map_err(TestCaseError::fail)? {
            EquivResult::Proved(_) => {}
            EquivResult::Refuted(cex) => {
                return Err(TestCaseError::fail(format!(
                    "minimization changed semantics: {}",
                    cex.volley_line()
                )));
            }
        }
    }
}
