//! The measuring window of one run: when it closes, and the set-ups
//! spaced across it.

use crate::calib::HostSpeed;
use crate::reduce::median;
use std::time::Instant;

/// Set-ups per window. They are spread evenly over the window rather than
/// run back to back: the host's speed swings for seconds at a time, so
/// back-to-back repetitions are all fast or all slow together.
const SETUPS: usize = 9;

/// One timed set-up.
struct SetUp {
    seconds: f64,
    /// The calibration kernels' times just before and just after.
    host: [HostSpeed; 2],
}

/// One run's measuring window.
pub struct Window {
    opened: Instant,
    seconds: f64,
    setups: usize,
    /// The workload's blend of the calibration kernels.
    mul_share: f64,
    done: Vec<SetUp>,
}

impl Window {
    /// Opens a window of `seconds`; `quick` cuts the set-ups to two.
    /// `mul_share` is the workload's blend of the calibration kernels.
    pub fn open(seconds: f64, quick: bool, mul_share: f64) -> Window {
        Window {
            opened: Instant::now(),
            seconds,
            setups: if quick { 2 } else { SETUPS },
            mul_share,
            done: Vec::new(),
        }
    }

    /// Seconds since the window opened.
    pub fn elapsed_s(&self) -> f64 {
        self.opened.elapsed().as_secs_f64()
    }

    /// Whether there is measuring time left.
    pub fn is_open(&self) -> bool {
        self.elapsed_s() < self.seconds
    }

    /// Whether the next spaced set-up is due.
    pub fn setup_due(&self) -> bool {
        let done = self.done.len();
        done < self.setups && self.elapsed_s() >= self.seconds * done as f64 / self.setups as f64
    }

    /// Times one set-up, and the calibration kernels on either side of it
    /// (set-up is single-threaded compute, so on this thread).
    pub fn time_setup<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let before = HostSpeed::measure();
        let t = Instant::now();
        let built = set_up();
        let seconds = t.elapsed().as_secs_f64();
        self.done.push(SetUp {
            seconds,
            host: [before, HostSpeed::measure()],
        });
        built
    }

    /// The median set-up at reference speed, in seconds.
    pub fn setup_s(&self) -> f64 {
        let at_ref: Vec<f64> = self
            .done
            .iter()
            .map(|s| s.seconds / HostSpeed::mean(&s.host).factor(self.mul_share))
            .collect();
        median(&at_ref)
    }

    /// The median set-up as the clock read it, in seconds.
    pub fn raw_setup_s(&self) -> f64 {
        median(&self.done.iter().map(|s| s.seconds).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_setup_is_due_at_once_and_the_median_is_reported() {
        let mut w = Window::open(3600.0, false, 0.5);
        assert!(w.setup_due() && w.is_open());
        w.time_setup(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        // The second is due a ninth of an hour in.
        assert!(!w.setup_due());
        w.time_setup(|| ());
        w.time_setup(|| ());
        assert!(w.raw_setup_s() < 0.002);
        assert!(w.setup_s().is_finite());
    }

    #[test]
    fn a_closed_window_still_owes_its_setups() {
        let w = Window::open(0.0, true, 0.5);
        assert!(!w.is_open());
        assert!(w.setup_due());
    }
}
