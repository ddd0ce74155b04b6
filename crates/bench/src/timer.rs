//! The one timer every micro-benchmark in `benches/` runs on.
//!
//! [`alternating`] times a set of routines by one protocol:
//!
//! * one untimed warm-up call of each routine, which also sizes its batch:
//!   a routine whose call took less than [`SAMPLE_TARGET`] is timed in
//!   batches of calls that last about that long, a slower one call by call;
//! * [`SAMPLES`] repetitions, each timing one batch of every routine, in
//!   order in even repetitions and in reverse in odd ones, so routines that
//!   share the host take turns going first;
//! * per routine, the interpolated median and quartiles of its seconds per
//!   call ([`Spread`]).
//!
//! A routine's state carries over from call to call, so a routine that
//! evolves something (an ensemble, an engine) keeps evolving it.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions of every routine.
pub const SAMPLES: usize = 9;

/// The shortest a timed sample should last: a routine whose warm-up call
/// took less runs enough calls per sample to reach it.
pub const SAMPLE_TARGET: Duration = Duration::from_millis(60);

/// The median and lower and upper quartiles of a set of samples, each
/// interpolated linearly between the two order statistics around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// The lower quartile.
    pub q1: f64,
    /// The upper quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    fn of(mut samples: Vec<f64>) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let position = q * (samples.len() - 1) as f64;
            let (low, high) = (position.floor() as usize, position.ceil() as usize);
            samples[low] + (samples[high] - samples[low]) * (position - low as f64)
        };
        Spread {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
        }
    }
}

/// Seconds in the largest unit that keeps the number at or above one.
fn human(seconds: f64) -> String {
    let ns = seconds * 1e9;
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{seconds:.3} s")
    }
}

/// A spread of seconds, as `median [q1–q3]`.
impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}–{}]",
            human(self.median),
            human(self.q1),
            human(self.q3)
        )
    }
}

/// The number of calls one timed sample makes, given how long the warm-up
/// call took.
fn batch_size(warm_up: Duration) -> usize {
    SAMPLE_TARGET
        .as_nanos()
        .div_ceil(warm_up.as_nanos().max(1))
        .try_into()
        .expect("a batch fits in usize")
}

/// Times `routines` by the protocol in the module docs and returns each
/// one's spread of seconds per call, in order.
pub fn alternating<F: FnMut()>(routines: &mut [F]) -> Vec<Spread> {
    let batches: Vec<usize> = routines
        .iter_mut()
        .map(|routine| {
            let start = Instant::now();
            routine();
            batch_size(start.elapsed())
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(SAMPLES); routines.len()];
    for rep in 0..SAMPLES {
        for turn in 0..routines.len() {
            let i = if rep % 2 == 0 {
                turn
            } else {
                routines.len() - 1 - turn
            };
            let start = Instant::now();
            for _ in 0..batches[i] {
                routines[i]();
            }
            samples[i].push(start.elapsed().as_secs_f64() / batches[i] as f64);
        }
    }
    samples.into_iter().map(Spread::of).collect()
}

/// Prints one `bench:` line: the case's name and its spread.
pub fn report(name: &str, spread: &Spread) {
    println!("bench: {name:<50} {spread}");
}

/// Times one routine, its result kept from the optimizer, and reports it
/// under `name`.
pub fn bench<R>(name: &str, mut routine: impl FnMut() -> R) {
    let spread = alternating(&mut [|| {
        black_box(routine());
    }])[0];
    report(name, &spread);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn spreads_interpolate_between_order_statistics() {
        let even = Spread::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            even,
            Spread {
                median: 2.5,
                q1: 1.75,
                q3: 3.25
            }
        );
        let odd = Spread::of(vec![5.0, 1.0, 3.0]);
        assert_eq!(
            odd,
            Spread {
                median: 3.0,
                q1: 2.0,
                q3: 4.0
            }
        );
        let nine = Spread::of((1..=9).rev().map(f64::from).collect());
        assert_eq!(
            nine,
            Spread {
                median: 5.0,
                q1: 3.0,
                q3: 7.0
            }
        );
        let one = Spread::of(vec![7.0]);
        assert_eq!(
            one,
            Spread {
                median: 7.0,
                q1: 7.0,
                q3: 7.0
            }
        );
    }

    #[test]
    fn batches_reach_the_sample_target() {
        assert_eq!(batch_size(SAMPLE_TARGET * 3), 1);
        assert_eq!(batch_size(SAMPLE_TARGET), 1);
        assert_eq!(batch_size(SAMPLE_TARGET / 4), 4);
        assert_eq!(batch_size(SAMPLE_TARGET / 4 - Duration::from_nanos(1)), 5);
        assert_eq!(
            batch_size(Duration::ZERO),
            SAMPLE_TARGET.as_nanos() as usize
        );
    }

    #[test]
    fn slow_routines_run_once_per_sample_and_take_turns() {
        let calls = RefCell::new(Vec::new());
        let slow = |name: char| {
            let calls = &calls;
            move || {
                calls.borrow_mut().push(name);
                std::thread::sleep(SAMPLE_TARGET);
            }
        };
        let spreads = alternating(&mut [slow('a'), slow('b')]);
        let mut expected = vec!['a', 'b'];
        for rep in 0..SAMPLES {
            expected.extend(if rep % 2 == 0 { ['a', 'b'] } else { ['b', 'a'] });
        }
        assert_eq!(calls.into_inner(), expected);
        for spread in spreads {
            assert!(spread.q1 >= SAMPLE_TARGET.as_secs_f64(), "{spread:?}");
        }
    }

    #[test]
    fn fast_routines_run_in_equal_batches() {
        let mut calls = 0usize;
        let spreads = alternating(&mut [|| calls += 1]);
        let timed = calls - 1;
        assert_eq!(timed % SAMPLES, 0, "{calls} calls");
        assert!(timed / SAMPLES > 1, "{calls} calls");
        assert!(spreads[0].median < SAMPLE_TARGET.as_secs_f64());
    }
}
