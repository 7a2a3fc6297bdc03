//! The lane-packed packet executor: up to [`MAX_PACKET`] volleys per pass.
//!
//! A *packet* is a group of volleys evaluated together, one *lane* per
//! volley: each input line, and every gate, carries one *block* — a
//! `[u8; N]` holding its [`lane`]-encoded time in every volley of the
//! packet. One walk, generic over the lane count `N`, runs two widths:
//!
//! * an eight-lane block ([`lane::LANES`]) for packets of up to eight
//!   volleys — the batch engine's unit;
//! * a [`ByteBlock`] of [`MAX_PACKET`] lanes for every larger packet,
//!   and for the pre-packed [`Plan::eval_blocks`] that proofs use.
//!
//! Unsigned byte order is the algebra's order on encoded times and the
//! lane `∞` is the top byte, so each op is one plain byte op per lane:
//! `u8::min`, `u8::max`, a compare-select and `u8::saturating_add`,
//! which the compiler turns into vector instructions. Every gate computes
//! its op on whole blocks in the plan's flattened topological order, with
//! no branch on the values, and the output blocks are unpacked back into
//! per-volley output volleys.

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
/// block width. The [`ByteBlock`]s take gates × [`MAX_PACKET`] bytes once
/// a packet wider than [`lane::LANES`] has run.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    lanes: Buffers<{ lane::LANES }>,
    bytes: Buffers<MAX_PACKET>,
}

/// The buffers of one block width.
#[derive(Debug, Default, Clone)]
struct Buffers<const N: usize> {
    values: Vec<[u8; N]>,
    inputs: Vec<[u8; N]>,
}

impl Plan {
    /// Evaluates one packet of up to [`MAX_PACKET`] volleys through the
    /// lane path, writing one output [`Volley`] per input volley into
    /// `out` (reusing each slot's allocation).
    ///
    /// A packet of at most [`lane::LANES`] volleys walks the plan with
    /// one eight-lane block per gate, a larger one with one
    /// [`ByteBlock`]; the walk is the same code either way.
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
    pub fn eval_packet(&self, scratch: &mut Scratch, volleys: &[Volley], out: &mut [Volley]) {
        assert!(
            (1..=MAX_PACKET).contains(&volleys.len()),
            "1..={MAX_PACKET} volleys per packet"
        );
        assert!(out.len() >= volleys.len(), "output slice too short");
        if volleys.len() <= lane::LANES {
            self.packet(&mut scratch.lanes, volleys, out);
        } else {
            self.packet(&mut scratch.bytes, volleys, out);
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
    ) {
        assert!(inputs.len() == self.input_count(), "one block per input");
        assert!(outputs.len() == self.output_width(), "one block per output");
        let values = &mut scratch.bytes.values;
        self.walk(values, inputs);
        for (block, &o) in outputs.iter_mut().zip(self.outputs()) {
            *block = values[o as usize];
        }
    }

    /// Transposes `volleys` into one block per input line, walks the
    /// plan, and untransposes the output blocks into `out`: volley `j`
    /// rides in lane `j` of every block.
    fn packet<const N: usize>(
        &self,
        buffers: &mut Buffers<N>,
        volleys: &[Volley],
        out: &mut [Volley],
    ) {
        let Buffers { values, inputs } = buffers;
        inputs.clear();
        inputs.resize(self.input_count(), [lane::INF; N]);
        for (j, volley) in volleys.iter().enumerate() {
            let times = volley.times();
            assert!(
                times.len() == self.input_count(),
                "volley width pre-checked"
            );
            for (block, &t) in inputs.iter_mut().zip(times) {
                let byte = lane::encode(t);
                assert!(byte.is_some(), "lane bound pre-checked");
                block[j] = byte.unwrap_or(lane::INF);
            }
        }
        self.walk(values, inputs);
        for (j, slot) in out.iter_mut().enumerate().take(volleys.len()) {
            let mut times = Vec::from(std::mem::take(slot));
            times.clear();
            times.extend(
                self.outputs()
                    .iter()
                    .map(|&o| lane::decode(values[o as usize][j])),
            );
            *slot = Volley::new(times);
        }
    }

    /// The packet walk: one block per gate into `values`, in the plan's
    /// topological order, reading input line `i` from `inputs[i]`.
    fn walk<const N: usize>(&self, values: &mut Vec<[u8; N]>, inputs: &[[u8; N]]) {
        // Every gate's block is written before any later gate reads it,
        // so blocks left over from an earlier packet are never seen.
        let steps = self.steps();
        if values.len() < steps.len() {
            values.resize(steps.len(), [lane::INF; N]);
        }
        let (consts, delays) = (self.lane_consts(), self.lane_delays());
        for (g, &step) in steps.iter().enumerate() {
            let (done, rest) = values.split_at_mut(g);
            let out = &mut rest[0];
            let at = |s: u32| &done[s as usize];
            match step {
                Step::Input(line) => *out = inputs[line as usize],
                Step::Const(k) => *out = [consts[k as usize]; N],
                Step::Min(a, b) => each(out, at(a), at(b), u8::min),
                Step::Max(a, b) => each(out, at(a), at(b), u8::max),
                Step::Lt(a, b) => each(out, at(a), at(b), lt),
                Step::Inc(a, k) => inc(out, at(a), delays[k as usize]),
                Step::MinN(s, e) => fold(out, done, self.arena(s, e), u8::min),
                Step::MaxN(s, e) => fold(out, done, self.arena(s, e), u8::max),
            }
        }
    }
}

/// `x ≺ y` on lane bytes: `x` where it is strictly first, `∞` elsewhere.
#[inline]
fn lt(x: u8, y: u8) -> u8 {
    if x < y {
        x
    } else {
        lane::INF
    }
}

/// `out = a + delay` on every lane, saturating to the lane `∞`.
#[inline]
fn inc<const N: usize>(out: &mut [u8; N], a: &[u8; N], delay: u8) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x.saturating_add(delay);
    }
}

/// `out[j] = op(a[j], b[j])` for every lane `j`.
#[inline]
fn each<const N: usize>(out: &mut [u8; N], a: &[u8; N], b: &[u8; N], op: impl Fn(u8, u8) -> u8) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = op(x, y);
    }
}

/// A merge of three or more sources, read from `done`: `op` folded over
/// them lane by lane.
#[inline]
fn fold<const N: usize>(
    out: &mut [u8; N],
    done: &[[u8; N]],
    srcs: &[u32],
    op: impl Fn(u8, u8) -> u8,
) {
    let at = |s: &u32| &done[*s as usize];
    each(out, at(&srcs[0]), at(&srcs[1]), &op);
    for s in &srcs[2..] {
        for (o, &x) in out.iter_mut().zip(at(s)) {
            *o = op(*o, x);
        }
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

    /// The walk's byte ops against the scalar algebra through the
    /// encoding, on every pair of lane bytes and at both block widths:
    /// `a` in every lane of one block, every byte `b` once across the
    /// other. `inc` is checked on every (byte, delay) pair, where it
    /// saturates to `∞` past 254.
    #[test]
    fn byte_ops_match_the_algebra_exhaustively() {
        let every: [u8; 256] = std::array::from_fn(|b| b as u8);
        let scalar = |op: fn(Time, Time) -> Time, a: u8, b: u8| {
            lane::encode(op(lane::decode(a), lane::decode(b)))
        };
        type Ops = (fn(u8, u8) -> u8, fn(Time, Time) -> Time);
        let ops: [Ops; 3] = [
            (u8::min, Time::meet),
            (u8::max, Time::join),
            (lt, Time::lt_gate),
        ];
        for (op, algebra) in ops {
            for a in 0..=u8::MAX {
                let mut wide = [0; 256];
                each(&mut wide, &[a; 256], &every, op);
                for (lanes, got) in every.chunks_exact(8).zip(wide.chunks_exact(8)) {
                    let lanes: [u8; 8] = lanes.try_into().unwrap();
                    let mut narrow = [0; 8];
                    each(&mut narrow, &[a; 8], &lanes, op);
                    assert_eq!(narrow, got, "a = {a}");
                    for (&b, &got) in lanes.iter().zip(got) {
                        assert_eq!(Some(got), scalar(algebra, a, b), "a = {a}, b = {b}");
                    }
                }
            }
        }
        for delay in 0..=u8::MAX {
            let mut wide = [0; 256];
            inc(&mut wide, &every, delay);
            for (lanes, got) in every.chunks_exact(8).zip(wide.chunks_exact(8)) {
                let mut narrow = [0; 8];
                inc(&mut narrow, lanes.try_into().unwrap(), delay);
                assert_eq!(narrow, got, "+ {delay}");
                for (&b, &got) in lanes.iter().zip(got) {
                    let sum = lane::decode(b).inc(u64::from(delay));
                    assert_eq!(got, lane::encode(sum).unwrap_or(lane::INF), "{b} + {delay}");
                }
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
