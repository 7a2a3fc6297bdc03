//! The lane-packed packet executor: up to [`MAX_PACKET`] volleys per pass.
//!
//! A *packet* is a group of volleys evaluated together, one *lane* per
//! volley: each input line, and every gate, carries one *block* holding
//! its [`lane`]-encoded time in every volley of the packet. Two block
//! types run through the same walk:
//!
//! * a `u64` word of [`lane::LANES`] lanes, computed with the SWAR ops of
//!   [`st_core::lane`] — the batch engine's packets of up to eight
//!   volleys;
//! * a [`ByteBlock`] of [`MAX_PACKET`] lanes, computed byte by byte with
//!   `u8::min`, `u8::max`, a compare-select and `u8::saturating_add`,
//!   which the compiler turns into vector instructions — every larger
//!   packet, and the pre-packed [`Plan::eval_blocks`] that proofs use.
//!
//! Every gate computes its op on whole blocks in the plan's flattened
//! topological order, and the output blocks are unpacked back into
//! per-volley output volleys. The per-gate inner loop is branch-free
//! except for the **∞-dominance early-out** on words: a gate whose
//! entire fan-in is all-silent (`∞` in every lane of every source) is
//! skipped — its output is all-silent by the algebra's absorption laws —
//! which pays off on sparse volleys where silence dominates whole
//! subgraphs. Byte blocks never take it.

use st_core::{lane, Volley};

use crate::plan::{Plan, Step};

/// The most volleys one [`Plan::eval_packet`] or [`Plan::eval_blocks`]
/// call carries: the lanes of one [`ByteBlock`]. Chosen by measurement
/// (`docs/kernel.md`, "The packet executor").
pub const MAX_PACKET: usize = 256;

/// One line of a [`MAX_PACKET`]-volley packet: byte `j` is the line's
/// [`lane`]-encoded time in volley `j`.
pub type ByteBlock = [u8; MAX_PACKET];

/// Reusable per-worker buffers for packet evaluation, so the hot loop
/// never allocates: one block per gate and one per input line, for each
/// block type. The byte blocks take gates × [`MAX_PACKET`] bytes once a
/// packet wider than [`lane::LANES`] has run.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    words: Buffers<u64>,
    bytes: Buffers<ByteBlock>,
}

/// The buffers of one block type.
#[derive(Debug, Clone)]
struct Buffers<B> {
    values: Vec<B>,
    inputs: Vec<B>,
}

impl<B> Default for Buffers<B> {
    fn default() -> Self {
        Buffers {
            values: Vec::new(),
            inputs: Vec::new(),
        }
    }
}

/// What one [`Plan::eval_packet`] call did — deterministic counts, the
/// raw material for the `kernel.*` metrics. Each gate counts once per
/// packet, whatever the packet's size.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PacketStats {
    /// Gates evaluated with lane ops (SWAR words or byte blocks).
    pub gates_swar: u64,
    /// Gates skipped by the ∞-dominance early-out (word packets only).
    pub gates_skipped: u64,
}

impl PacketStats {
    /// Accumulates another packet's counts into this one.
    pub fn absorb(&mut self, other: PacketStats) {
        self.gates_swar += other.gates_swar;
        self.gates_skipped += other.gates_skipped;
    }
}

/// One gate's value across a packet, one lane byte per volley. Every op
/// works lane by lane: no lane ever reads another.
trait Block: Copy {
    /// Every lane `∞`.
    const SILENT: Self;

    /// Every lane `byte`.
    fn splat(byte: u8) -> Self;

    /// Lane `lane`'s byte.
    fn get(&self, lane: usize) -> u8;

    /// Overwrites lane `lane` with `byte`.
    fn set(&mut self, lane: usize, byte: u8);

    /// Whether the ∞-dominance early-out may skip a gate reading this
    /// block: `true` only if every lane is `∞`, and `false` is always
    /// safe.
    fn is_silent(&self) -> bool;

    /// `out = a ∧ b`.
    fn min(out: &mut Self, a: &Self, b: &Self);

    /// `out = a ∨ b`.
    fn max(out: &mut Self, a: &Self, b: &Self);

    /// `out = a ≺ b`.
    fn lt(out: &mut Self, a: &Self, b: &Self);

    /// `out = inc(a, delay)`, saturating to `∞`.
    fn inc(out: &mut Self, a: &Self, delay: u8);
}

impl Block for u64 {
    const SILENT: u64 = lane::ALL_INF;

    fn splat(byte: u8) -> u64 {
        lane::broadcast(byte)
    }

    fn get(&self, lane: usize) -> u8 {
        lane::get(*self, lane)
    }

    fn set(&mut self, lane: usize, byte: u8) {
        let shift = 8 * lane;
        *self = (*self & !(0xFF << shift)) | (u64::from(byte) << shift);
    }

    fn is_silent(&self) -> bool {
        *self == lane::ALL_INF
    }

    fn min(out: &mut u64, a: &u64, b: &u64) {
        *out = lane::min(*a, *b);
    }

    fn max(out: &mut u64, a: &u64, b: &u64) {
        *out = lane::max(*a, *b);
    }

    fn lt(out: &mut u64, a: &u64, b: &u64) {
        *out = lane::lt_gate(*a, *b);
    }

    fn inc(out: &mut u64, a: &u64, delay: u8) {
        *out = lane::inc(*a, delay);
    }
}

/// Unsigned byte order is the algebra's order on encoded times, and the
/// lane `∞` is the top byte, so each op is one plain byte op per lane.
impl<const N: usize> Block for [u8; N] {
    const SILENT: [u8; N] = [lane::INF; N];

    fn splat(byte: u8) -> [u8; N] {
        [byte; N]
    }

    fn get(&self, lane: usize) -> u8 {
        self[lane]
    }

    fn set(&mut self, lane: usize, byte: u8) {
        self[lane] = byte;
    }

    /// Never: hundreds of lanes are rarely all silent, and testing
    /// them costs about what the op it would skip costs, so the walk
    /// runs faster without the early-out (docs/kernel.md).
    fn is_silent(&self) -> bool {
        false
    }

    fn min(out: &mut [u8; N], a: &[u8; N], b: &[u8; N]) {
        each(out, a, b, u8::min);
    }

    fn max(out: &mut [u8; N], a: &[u8; N], b: &[u8; N]) {
        each(out, a, b, u8::max);
    }

    fn lt(out: &mut [u8; N], a: &[u8; N], b: &[u8; N]) {
        each(out, a, b, |x, y| if x < y { x } else { lane::INF });
    }

    fn inc(out: &mut [u8; N], a: &[u8; N], delay: u8) {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = x.saturating_add(delay);
        }
    }
}

/// `out[j] = op(a[j], b[j])` for every lane `j`.
#[inline]
fn each<const N: usize>(out: &mut [u8; N], a: &[u8; N], b: &[u8; N], op: impl Fn(u8, u8) -> u8) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = op(x, y);
    }
}

impl Plan {
    /// Evaluates one packet of up to [`MAX_PACKET`] volleys through the
    /// lane path, writing one output [`Volley`] per input volley into
    /// `out` (reusing each slot's allocation).
    ///
    /// A packet of at most [`lane::LANES`] volleys walks the plan with
    /// one `u64` word per gate, a larger one with one [`ByteBlock`]; the
    /// walk is the same code either way.
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
            self.packet(&mut scratch.words, volleys, out)
        } else {
            self.packet(&mut scratch.bytes, volleys, out)
        }
    }

    /// Evaluates one packet that arrives lane-packed: `inputs[line]`
    /// holds input line `line` of up to [`MAX_PACKET`] volleys, volley
    /// `j` in byte `j`, and output `k` of each volley lands in the same
    /// byte of `outputs[k]`. Nothing is transposed or decoded.
    ///
    /// Lane `j` of every output depends on lane `j` of the inputs alone,
    /// so lanes a caller will not read may hold any bytes. Every lane
    /// that is read must hold lane encodings within
    /// [`Plan::lane_input_limit`]; there, the lane is bit-identical to
    /// [`Plan::eval`] on that lane's volley.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not hold [`Plan::input_count`] blocks or
    /// `outputs` [`Plan::output_width`] blocks.
    pub fn eval_blocks(
        &self,
        scratch: &mut Scratch,
        inputs: &[ByteBlock],
        outputs: &mut [ByteBlock],
    ) -> PacketStats {
        assert!(inputs.len() == self.input_count(), "one block per input");
        assert!(outputs.len() == self.output_width(), "one block per output");
        let values = &mut scratch.bytes.values;
        let stats = self.walk(values, inputs);
        for (block, &o) in outputs.iter_mut().zip(self.outputs()) {
            *block = values[o as usize];
        }
        stats
    }

    /// Transposes `volleys` into one block per input line, walks the
    /// plan, and untransposes the output blocks into `out`: volley `j`
    /// rides in lane `j` of every block.
    fn packet<B: Block>(
        &self,
        buffers: &mut Buffers<B>,
        volleys: &[Volley],
        out: &mut [Volley],
    ) -> PacketStats {
        let Buffers { values, inputs } = buffers;
        inputs.clear();
        inputs.resize(self.input_count(), B::SILENT);
        for (j, volley) in volleys.iter().enumerate() {
            let times = volley.times();
            assert!(
                times.len() == self.input_count(),
                "volley width pre-checked"
            );
            for (block, &t) in inputs.iter_mut().zip(times) {
                let byte = lane::encode(t);
                assert!(byte.is_some(), "lane bound pre-checked");
                block.set(j, byte.unwrap_or(lane::INF));
            }
        }
        let stats = self.walk(values, inputs);
        for (j, slot) in out.iter_mut().enumerate().take(volleys.len()) {
            let mut times = Vec::from(std::mem::take(slot));
            times.clear();
            times.extend(
                self.outputs()
                    .iter()
                    .map(|&o| lane::decode(values[o as usize].get(j))),
            );
            *slot = Volley::new(times);
        }
        stats
    }

    /// The packet walk: one block per gate into `values`, in the plan's
    /// topological order, reading input line `i` from `inputs[i]`.
    fn walk<B: Block>(&self, values: &mut Vec<B>, inputs: &[B]) -> PacketStats {
        // Every gate's block is written before any later gate reads it,
        // so blocks left over from an earlier packet are never seen.
        let steps = self.steps();
        if values.len() < steps.len() {
            values.resize(steps.len(), B::SILENT);
        }
        let (consts, delays) = (self.lane_consts(), self.lane_delays());
        let mut stats = PacketStats::default();
        for (g, &step) in steps.iter().enumerate() {
            let (done, rest) = values.split_at_mut(g);
            let out = &mut rest[0];
            let at = |s: u32| &done[s as usize];
            match step {
                Step::Input(line) => *out = inputs[line as usize],
                Step::Const(k) => *out = B::splat(consts[k as usize]),
                Step::Min(a, b) => gate(out, at(a), at(b), B::min, &mut stats),
                Step::Max(a, b) => gate(out, at(a), at(b), B::max, &mut stats),
                Step::Lt(a, b) => gate(out, at(a), at(b), B::lt, &mut stats),
                Step::Inc(a, k) => {
                    let delay = delays[k as usize];
                    gate(
                        out,
                        at(a),
                        at(a),
                        |out, x, _| B::inc(out, x, delay),
                        &mut stats,
                    );
                }
                Step::MinN(s, e) => wide(out, done, self.arena(s, e), B::min, &mut stats),
                Step::MaxN(s, e) => wide(out, done, self.arena(s, e), B::max, &mut stats),
            }
        }
        stats
    }
}

/// One gate of the walk reading blocks `a` and `b` (`a` twice for `+c`):
/// `op` on them, or, when both are all-silent, an all-silent block
/// without the lane work — the **∞-dominance early-out**: `∧`, `∨`, `≺`
/// and `+c` all map `∞` to `∞`. Byte blocks never report silence, so
/// they never skip.
#[inline(always)]
fn gate<B: Block>(out: &mut B, a: &B, b: &B, op: impl Fn(&mut B, &B, &B), stats: &mut PacketStats) {
    if a.is_silent() && b.is_silent() {
        stats.gates_skipped += 1;
        *out = B::SILENT;
    } else {
        stats.gates_swar += 1;
        op(out, a, b);
    }
}

/// A merge of three or more sources, read from `done`: `op` folded over
/// them, with [`gate`]'s early-out when every one is all-silent.
fn wide<B: Block>(
    out: &mut B,
    done: &[B],
    srcs: &[u32],
    op: impl Fn(&mut B, &B, &B),
    stats: &mut PacketStats,
) {
    let at = |s: &u32| &done[*s as usize];
    if srcs.iter().all(|s| at(s).is_silent()) {
        stats.gates_skipped += 1;
        *out = B::SILENT;
        return;
    }
    stats.gates_swar += 1;
    op(out, at(&srcs[0]), at(&srcs[1]));
    for s in &srcs[2..] {
        op(out, &{ *out }, at(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;
    use st_net::sorting::sorting_network;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// The byte block's ops against the SWAR word's and the scalar
    /// algebra's, on every pair of lane bytes: `a` in every lane of one
    /// block, every byte `b` once in the other.
    #[test]
    fn byte_block_ops_match_the_swar_word_and_the_algebra_exhaustively() {
        let every: [u8; 256] = std::array::from_fn(|b| b as u8);
        type Ops = (
            fn(&mut [u8; 256], &[u8; 256], &[u8; 256]),
            fn(u64, u64) -> u64,
            fn(Time, Time) -> Time,
        );
        let ops: [Ops; 3] = [
            (Block::min, lane::min, Time::meet),
            (Block::max, lane::max, Time::join),
            (Block::lt, lane::lt_gate, Time::lt_gate),
        ];
        for (block_op, word_op, scalar) in ops {
            for a in 0..=u8::MAX {
                let mut block = [0; 256];
                block_op(&mut block, &<[u8; 256]>::splat(a), &every);
                for (lanes, got) in every
                    .chunks_exact(lane::LANES)
                    .zip(block.chunks_exact(lane::LANES))
                {
                    let word = u64::from_le_bytes(lanes.try_into().unwrap());
                    let expected = word_op(lane::broadcast(a), word);
                    for (j, (&b, &got)) in lanes.iter().zip(got).enumerate() {
                        assert_eq!(got, lane::get(expected, j), "a = {a}, b = {b}");
                        assert_eq!(
                            lane::decode(got),
                            scalar(lane::decode(a), lane::decode(b)),
                            "a = {a}, b = {b}"
                        );
                    }
                }
            }
        }
        for delay in 0..=u8::MAX {
            let mut block = [0; 256];
            Block::inc(&mut block, &every, delay);
            for (&b, &got) in every.iter().zip(&block) {
                let expected = lane::inc(lane::broadcast(b), delay);
                assert_eq!(got, lane::get(expected, 0), "{b} + {delay}");
            }
        }
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

    /// Word packets skip every gate of an all-silent packet; byte blocks
    /// skip none and reach the same all-silent outputs.
    #[test]
    fn all_silent_batch_skips_every_gate_on_words() {
        let plan = Plan::from_network(&sorting_network(4));
        for (n, skips) in [(8, true), (MAX_PACKET, false)] {
            let volleys = vec![Volley::silent(4); n];
            let mut out = vec![Volley::new(Vec::new()); n];
            let mut scratch = Scratch::default();
            let stats = plan.eval_packet(&mut scratch, &volleys, &mut out);
            assert_eq!(stats.gates_skipped > 0, skips, "{n} volleys");
            assert_eq!(stats.gates_swar == 0, skips, "{n} volleys");
            for volley in &out {
                assert!(volley.times().iter().all(|t| t.is_infinite()));
            }
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
