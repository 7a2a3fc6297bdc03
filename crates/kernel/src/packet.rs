//! The lane-packed packet executor: up to 64 volleys per pass.
//!
//! A *packet* is up to [`MAX_PACKET`] volleys evaluated together: each
//! input line's spike times are packed [`lane::LANES`] to a `u64` word,
//! so a line (and every gate) carries a *block* of one word for a packet
//! of up to eight volleys, eight words for a larger one. Every gate
//! computes its SWAR op on whole blocks in the plan's flattened
//! topological order, and the output blocks are unpacked back into
//! per-volley output volleys. The per-gate inner loop is branch-free
//! except for the **∞-dominance early-out**: a gate whose entire fan-in
//! is all-silent (`∞` in every lane of every source) is skipped — its
//! output is all-silent by the algebra's absorption laws — which pays
//! off on sparse volleys where silence dominates whole subgraphs.

use st_core::{lane, Volley};

use crate::plan::{Op, Plan};

/// Lane words per gate in the widest packet.
const MAX_WORDS: usize = 8;

/// The most volleys one [`Plan::eval_packet`] call carries: eight lane
/// words of [`lane::LANES`] volleys each.
pub const MAX_PACKET: usize = MAX_WORDS * lane::LANES;

/// Reusable per-worker buffers for packet evaluation, so the hot loop
/// never allocates: one block per gate and one per input line.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    values: Vec<u64>,
    inputs: Vec<u64>,
}

/// What one [`Plan::eval_packet`] call did — deterministic counts, the
/// raw material for the `kernel.*` metrics. Each gate counts once per
/// packet, whatever the packet's size.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PacketStats {
    /// Gates evaluated with SWAR ops.
    pub gates_swar: u64,
    /// Gates skipped by the ∞-dominance early-out.
    pub gates_skipped: u64,
}

impl PacketStats {
    /// Accumulates another packet's counts into this one.
    pub fn absorb(&mut self, other: PacketStats) {
        self.gates_swar += other.gates_swar;
        self.gates_skipped += other.gates_skipped;
    }
}

impl Plan {
    /// Evaluates one packet of up to [`MAX_PACKET`] volleys through the
    /// lane path, writing one output [`Volley`] per input volley into
    /// `out` (reusing each slot's allocation).
    ///
    /// A packet of at most [`lane::LANES`] volleys walks the plan with
    /// one lane word per gate, a larger one with eight; the walk is the
    /// same code either way.
    ///
    /// Callers must pre-check the batch with [`Plan::lane_capable`] and
    /// volley widths with [`Plan::input_count`]; within that contract
    /// the results are bit-identical to [`Plan::eval`] on each volley.
    ///
    /// # Panics
    ///
    /// Panics if `volleys` is empty or longer than [`MAX_PACKET`], if
    /// `out` is shorter than `volleys`, or if a volley violates the
    /// width/bound contract above.
    pub fn eval_packet(
        &self,
        scratch: &mut Scratch,
        volleys: &[Volley],
        out: &mut [Volley],
    ) -> PacketStats {
        assert!(
            (1..=MAX_PACKET).contains(&volleys.len()),
            "1..={MAX_PACKET} volleys per packet"
        );
        assert!(out.len() >= volleys.len(), "output slice too short");
        if volleys.len() <= lane::LANES {
            self.walk::<1>(scratch, volleys, out)
        } else {
            self.walk::<MAX_WORDS>(scratch, volleys, out)
        }
    }

    /// The packet walk over `K`-word blocks: volley `j` rides in word
    /// `j / 8`, lane `j % 8`, of every block.
    fn walk<const K: usize>(
        &self,
        scratch: &mut Scratch,
        volleys: &[Volley],
        out: &mut [Volley],
    ) -> PacketStats {
        let Scratch { values, inputs } = scratch;

        // Transpose the volleys into one packed block per input line.
        inputs.clear();
        inputs.resize(self.input_count() * K, lane::ALL_INF);
        for (j, volley) in volleys.iter().enumerate() {
            let times = volley.times();
            assert!(
                times.len() == self.input_count(),
                "volley width pre-checked"
            );
            let (word, shift) = (j / lane::LANES, 8 * (j % lane::LANES));
            for (line, &t) in times.iter().enumerate() {
                let byte = lane::encode(t).expect("lane bound pre-checked");
                let slot = &mut inputs[line * K + word];
                *slot = (*slot & !(0xFF << shift)) | (u64::from(byte) << shift);
            }
        }
        let (inputs, _) = inputs.as_chunks::<K>();

        // Every gate's block is written before any later gate reads it,
        // so blocks left over from an earlier packet are never seen.
        let ops = self.ops();
        let args = self.args();
        if values.len() < ops.len() * K {
            values.resize(ops.len() * K, 0);
        }
        let (values, _) = values.as_chunks_mut::<K>();
        let silent = [lane::ALL_INF; K];
        let mut stats = PacketStats::default();
        for g in 0..ops.len() {
            let block = match ops[g] {
                Op::Input => inputs[args[g] as usize],
                Op::Const => [self.lane_consts()[args[g] as usize]; K],
                op => {
                    let srcs = self.fan_in(g);
                    if !srcs.is_empty() && srcs.iter().all(|&s| values[s as usize] == silent) {
                        // ∞-dominance: an all-silent fan-in forces an
                        // all-silent output for every op (∧, ∨, ≺, +c
                        // all map ∞ to ∞), so skip the SWAR work.
                        stats.gates_skipped += 1;
                        silent
                    } else {
                        stats.gates_swar += 1;
                        let src = |i: usize| values[srcs[i] as usize];
                        match op {
                            Op::Min => srcs[1..]
                                .iter()
                                .fold(src(0), |acc, &s| each(acc, values[s as usize], lane::min)),
                            Op::Max => srcs[1..]
                                .iter()
                                .fold(src(0), |acc, &s| each(acc, values[s as usize], lane::max)),
                            Op::Lt => each(src(0), src(1), lane::lt_gate),
                            Op::Inc => {
                                let delay = self.lane_delays()[args[g] as usize];
                                src(0).map(|word| lane::inc(word, delay))
                            }
                            Op::Input | Op::Const => unreachable!("handled above"),
                        }
                    }
                }
            };
            values[g] = block;
        }

        // Untranspose: one output block per line → one volley per lane.
        for (j, slot) in out.iter_mut().enumerate().take(volleys.len()) {
            let (word, lane_index) = (j / lane::LANES, j % lane::LANES);
            let mut times = Vec::from(std::mem::take(slot));
            times.clear();
            times.extend(
                self.outputs()
                    .iter()
                    .map(|&o| lane::decode(lane::get(values[o as usize][word], lane_index))),
            );
            *slot = Volley::new(times);
        }
        stats
    }
}

/// One SWAR op applied word by word across two blocks.
#[inline]
fn each<const K: usize>(a: [u64; K], b: [u64; K], op: impl Fn(u64, u64) -> u64) -> [u64; K] {
    std::array::from_fn(|i| op(a[i], b[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;
    use st_net::sorting::sorting_network;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    #[test]
    fn packet_matches_scalar_on_a_sorter() {
        let plan = Plan::from_network(&sorting_network(4));
        let volleys: Vec<Volley> = (0..8)
            .map(|i| {
                Volley::new(vec![
                    t(7 - i % 8),
                    if i % 3 == 0 { Time::INFINITY } else { t(i) },
                    t(i * 31 % 254),
                    t(3),
                ])
            })
            .collect();
        assert!(plan.lane_capable(&volleys));
        let mut out = vec![Volley::new(Vec::new()); volleys.len()];
        let mut scratch = Scratch::default();
        plan.eval_packet(&mut scratch, &volleys, &mut out);
        for (volley, got) in volleys.iter().zip(&out) {
            let scalar = plan.eval(volley.times()).unwrap();
            assert_eq!(got.times(), &scalar[..], "volley {volley}");
        }
    }

    #[test]
    fn partial_packets_pad_with_silence() {
        let plan = Plan::from_network(&sorting_network(2));
        let volleys = vec![Volley::new(vec![t(5), t(1)])];
        let mut out = vec![Volley::new(Vec::new())];
        let mut scratch = Scratch::default();
        plan.eval_packet(&mut scratch, &volleys, &mut out);
        assert_eq!(out[0].times(), &[t(1), t(5)]);
    }

    #[test]
    fn all_silent_batch_skips_every_gate() {
        let plan = Plan::from_network(&sorting_network(4));
        let volleys = vec![Volley::silent(4); 8];
        let mut out = vec![Volley::new(Vec::new()); 8];
        let mut scratch = Scratch::default();
        let stats = plan.eval_packet(&mut scratch, &volleys, &mut out);
        assert_eq!(stats.gates_swar, 0);
        assert!(stats.gates_skipped > 0);
        for volley in &out {
            assert!(volley.times().iter().all(|t| t.is_infinite()));
        }
    }

    #[test]
    fn scratch_is_reusable_across_plans() {
        let small = Plan::from_network(&sorting_network(2));
        let big = Plan::from_network(&sorting_network(6));
        let mut scratch = Scratch::default();
        let v_small = vec![Volley::new(vec![t(2), t(0)]); 3];
        let v_big = vec![Volley::new(vec![t(5), t(4), t(3), t(2), t(1), t(0)]); 3];
        let mut out = vec![Volley::new(Vec::new()); 3];
        big.eval_packet(&mut scratch, &v_big, &mut out);
        assert_eq!(out[1].times(), &[t(0), t(1), t(2), t(3), t(4), t(5)]);
        small.eval_packet(&mut scratch, &v_small, &mut out);
        assert_eq!(out[2].times(), &[t(0), t(2)]);
    }
}
