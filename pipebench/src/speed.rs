//! Machine-speed normalization of the reported timings.
//!
//! The vCPUs of a shared host do not keep one speed. The pipeline runs
//! up to 2× slower in phases that last from seconds to minutes, while a
//! latency-bound integer loop on the same vCPU barely moves. A run that
//! falls wholly inside a slow phase cannot be steadied by taking more
//! samples.
//!
//! So every round of a workload also times a fixed reference loop of
//! the same kind of work as the proof gates that dominate the pipeline:
//! a gate network of the algebra's primitives (`min`, `max`, `lt`,
//! `inc`), each gate's operand list a heap block of its own, evaluated
//! volley after volley into a fresh vector of spike times. It is the
//! benchmark's own code and calls nothing in the program under test, so
//! a change to the program does not change its speed. Of the loops
//! tried (sorting, table scatters, integer formatting, a flat gate
//! array, memory copies, pointer chasing), it followed the pipeline's
//! speed most closely through a 1.7× slowdown of the machine. Each
//! timing of a round is scaled by [`REFERENCE_SECONDS`] ÷ the round's
//! median reference time: it reads as the time on a machine where the
//! reference loop takes [`REFERENCE_SECONDS`]. A change to the program
//! moves the scaled timings as it moves the wall times; a change of
//! machine speed moves the reference loop too and largely cancels. The
//! raw wall times are printed beside the scaled ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The reference loop's time at the nominal machine speed: about its
/// median on a 2-vCPU x86_64 Xeon VM at 2.1 GHz.
pub const REFERENCE_SECONDS: f64 = 2.0e-3;

/// Gates of the reference network.
const REFERENCE_GATES: usize = 3000;

/// Input lines of the reference network.
const REFERENCE_LINES: usize = 5;

/// Volleys the reference network evaluates per sample.
const REFERENCE_VOLLEYS: usize = 200;

/// A silent line in the reference network.
const NEVER: u64 = u64::MAX;

/// A xorshift64 step: every choice the reference loop makes.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference network: per gate an op code (0 `min`, 1 `max`, 2 `lt`,
/// 3 `inc`) and its operands, which index the input lines and then the
/// earlier gates.
#[derive(Debug, Clone)]
struct Network {
    gates: Vec<(u8, Vec<u32>)>,
}

impl Network {
    /// The fixed network. Each operand list is allocated between blocks
    /// that are freed again, so the lists lie scattered over the heap as
    /// a parsed network's do.
    fn new() -> Network {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut spacers = Vec::with_capacity(REFERENCE_GATES);
        let gates = (0..REFERENCE_GATES)
            .map(|gate| {
                let r = next(&mut x);
                let wires = (REFERENCE_LINES + gate) as u64;
                let arity = if r.is_multiple_of(3) {
                    1
                } else {
                    2 + (r >> 50) as usize % 3
                };
                let operands = (0..arity)
                    .map(|k| ((r >> (9 * k)) % wires) as u32)
                    .collect();
                spacers.push(vec![0u8; 24 + (r >> 33) as usize % 64]);
                ((r >> 40) as u8 % 4, operands)
            })
            .collect();
        drop(black_box(spacers));
        Network { gates }
    }

    /// One reference sample's work; returns a checksum so none of it is
    /// optimized away.
    fn work(&self) -> u64 {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut checksum = 0u64;
        for _ in 0..REFERENCE_VOLLEYS {
            let mut times: Vec<u64> = Vec::with_capacity(REFERENCE_LINES + self.gates.len());
            for _ in 0..REFERENCE_LINES {
                let r = next(&mut x);
                times.push(if r.is_multiple_of(7) { NEVER } else { r % 8 });
            }
            for (op, operands) in &self.gates {
                let time = |k: usize| times[operands[k] as usize];
                let t = match op {
                    0 => operands.iter().map(|&o| times[o as usize]).min(),
                    1 => operands.iter().map(|&o| times[o as usize]).max(),
                    2 => Some(if time(0) < time(operands.len() - 1) {
                        time(0)
                    } else {
                        NEVER
                    }),
                    _ => Some(time(0).saturating_add(1)),
                };
                times.push(t.unwrap_or(NEVER));
            }
            checksum = checksum.wrapping_add(times[times.len() - 1]);
        }
        checksum
    }
}

/// The reference loop and its samples, grouped into rounds.
#[derive(Debug, Clone)]
pub struct Speed {
    network: Network,
    samples: Vec<f64>,
    total: usize,
    last: Instant,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed::new()
    }
}

impl Speed {
    /// Builds the reference network; no samples yet.
    #[must_use]
    pub fn new() -> Speed {
        Speed {
            network: Network::new(),
            samples: Vec::new(),
            total: 0,
            last: Instant::now(),
        }
    }

    /// Times one run of the reference loop, after an untimed run that
    /// brings its network back into the caches: the program's last
    /// operation evicted it, and a cold run would measure how much it
    /// evicted rather than the machine's speed.
    /// Returns the sample's seconds.
    pub fn sample(&mut self) -> f64 {
        black_box(black_box(&self.network).work());
        let start = Instant::now();
        black_box(black_box(&self.network).work());
        let seconds = start.elapsed().as_secs_f64();
        self.samples.push(seconds);
        self.total += 1;
        self.last = Instant::now();
        seconds
    }

    /// Takes a sample if `interval` has passed since the last one.
    pub fn sample_every(&mut self, interval: Duration) {
        if self.last.elapsed() >= interval {
            self.sample();
        }
    }

    /// Samples taken over all rounds.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.total
    }

    /// Ends the round: returns what its wall times are multiplied by,
    /// [`REFERENCE_SECONDS`] ÷ its median sample (1 without samples),
    /// and starts the next round.
    pub fn end_round(&mut self) -> f64 {
        let factor = if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_SECONDS / median(&self.samples)
        };
        self.samples.clear();
        factor
    }
}

/// Wall times, each with the speed factor of the round it was taken in.
#[derive(Debug, Clone, Default)]
pub struct Scaled {
    wall: Vec<f64>,
    scaled: Vec<f64>,
}

impl Scaled {
    /// Adds a wall time taken in a round with speed factor `factor`.
    pub fn push(&mut self, wall: f64, factor: f64) {
        self.wall.push(wall);
        self.scaled.push(wall * factor);
    }

    /// The median time scaled to the reference speed (0 when empty).
    #[must_use]
    pub fn median(&self) -> f64 {
        median(&self.scaled)
    }

    /// The median wall time (0 when empty).
    #[must_use]
    pub fn wall_median(&self) -> f64 {
        median(&self.wall)
    }

    /// The times scaled to the reference speed.
    #[must_use]
    pub fn scaled(&self) -> &[f64] {
        &self.scaled
    }

    /// The unscaled wall times.
    #[must_use]
    pub fn wall(&self) -> &[f64] {
        &self.wall
    }

    /// How many times were added.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// Whether none were.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wall.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_wall_times_to_the_reference_speed() {
        let mut speed = Speed::new();
        assert_eq!(speed.end_round(), 1.0);
        speed.samples = vec![4.0e-3, 1.0e-3, 4.0e-3];
        assert_eq!(speed.end_round(), 0.5);
        speed.sample();
        speed.sample();
        assert_eq!(speed.samples(), 2);
        let factor = speed.end_round();
        assert!(factor.is_finite() && factor > 0.0);

        let mut times = Scaled::default();
        times.push(2.0, 0.5);
        times.push(4.0, 2.0);
        times.push(6.0, 1.0);
        assert_eq!((times.median(), times.wall_median()), (6.0, 4.0));
    }
}
