//! Sound-activated detection (§II).
//!
//! "While sensors are continuously sensing, nothing is recorded unless it
//! exceeds the long-term running average of background noise by a
//! sufficient margin." The detector maintains that running average with an
//! EWMA — updated only while no event is active, so the event itself does
//! not pollute the noise floor — and applies hysteresis so a level
//! hovering at the threshold does not chatter.

/// Detector output for one level sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detection {
    /// No event in progress.
    Quiet,
    /// An event just started at this level.
    Started {
        /// The triggering level (ADC units).
        level: f64,
    },
    /// The event continues at this level.
    Ongoing {
        /// Current level (ADC units).
        level: f64,
    },
    /// The event just ended.
    Stopped,
}

/// The running-average sound-activated detector.
///
/// # Examples
///
/// ```
/// use enviromic_core::{Detection, SoundDetector};
///
/// let mut d = SoundDetector::new(8.0, 25.0, 0.6, 0.02);
/// assert_eq!(d.on_level(9.0), Detection::Quiet);
/// assert!(matches!(d.on_level(120.0), Detection::Started { .. }));
/// assert!(matches!(d.on_level(110.0), Detection::Ongoing { .. }));
/// assert_eq!(d.on_level(9.0), Detection::Stopped);
/// ```
#[derive(Debug, Clone)]
pub struct SoundDetector {
    background: f64,
    margin: f64,
    off_fraction: f64,
    alpha: f64,
    active: bool,
}

impl SoundDetector {
    /// Creates a detector.
    ///
    /// * `initial_background` — starting noise-floor estimate (ADC units);
    /// * `margin` — a level must exceed background + margin to trigger;
    /// * `off_fraction` — the event ends below background +
    ///   `margin * off_fraction` (hysteresis);
    /// * `alpha` — EWMA weight for background updates.
    ///
    /// # Panics
    ///
    /// Panics when `margin` is not positive, `off_fraction` is outside
    /// `(0, 1]`, or `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(initial_background: f64, margin: f64, off_fraction: f64, alpha: f64) -> Self {
        assert!(margin > 0.0, "margin must be positive");
        assert!(
            off_fraction > 0.0 && off_fraction <= 1.0,
            "off fraction must lie in (0, 1]"
        );
        assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0, 1]");
        SoundDetector {
            background: initial_background,
            margin,
            off_fraction,
            alpha,
            active: false,
        }
    }

    /// The current background noise estimate.
    #[must_use]
    pub fn background(&self) -> f64 {
        self.background
    }

    /// True while an event is considered in progress.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Feeds one microphone level sample and returns the detection state
    /// transition it causes.
    pub fn on_level(&mut self, level: f64) -> Detection {
        if self.active {
            if level < self.background + self.margin * self.off_fraction {
                self.active = false;
                Detection::Stopped
            } else {
                Detection::Ongoing { level }
            }
        } else if level > self.background + self.margin {
            self.active = true;
            Detection::Started { level }
        } else {
            // Quiet: fold the sample into the long-term background average.
            self.background += self.alpha * (level - self.background);
            Detection::Quiet
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> SoundDetector {
        SoundDetector::new(8.0, 25.0, 0.6, 0.05)
    }

    #[test]
    fn quiet_levels_stay_quiet() {
        let mut d = detector();
        for _ in 0..100 {
            assert_eq!(d.on_level(8.5), Detection::Quiet);
        }
        assert!(!d.is_active());
    }

    #[test]
    fn loud_level_triggers_once() {
        let mut d = detector();
        assert_eq!(d.on_level(100.0), Detection::Started { level: 100.0 });
        assert_eq!(d.on_level(100.0), Detection::Ongoing { level: 100.0 });
        assert!(d.is_active());
    }

    #[test]
    fn hysteresis_prevents_chatter() {
        let mut d = detector();
        let _ = d.on_level(40.0); // started (8 + 25 < 40)
                                  // Level drops below the on-threshold (33) but above the
                                  // off-threshold (8 + 15 = 23): still ongoing.
        assert!(matches!(d.on_level(28.0), Detection::Ongoing { .. }));
        // Below the off-threshold: stopped.
        assert_eq!(d.on_level(20.0), Detection::Stopped);
        assert_eq!(d.on_level(20.0), Detection::Quiet);
    }

    #[test]
    fn background_tracks_slow_drift() {
        let mut d = detector();
        for _ in 0..500 {
            let _ = d.on_level(16.0);
        }
        assert!((d.background() - 16.0).abs() < 0.5);
        // The trigger threshold drifted with it: 30 no longer triggers
        // relative to old background 8 + 25 = 33, and 16 + 25 = 41.
        assert_eq!(d.on_level(40.0), Detection::Quiet);
        assert!(matches!(d.on_level(45.0), Detection::Started { .. }));
    }

    #[test]
    fn background_frozen_during_event() {
        let mut d = detector();
        let bg = d.background();
        let _ = d.on_level(200.0);
        for _ in 0..100 {
            let _ = d.on_level(200.0);
        }
        assert_eq!(d.background(), bg, "event polluted the noise floor");
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn zero_margin_panics() {
        let _ = SoundDetector::new(8.0, 0.0, 0.5, 0.1);
    }
}
