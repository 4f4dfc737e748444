//! Interrupt moderation (ITR).
//!
//! Real NICs rate-limit interrupts with a holdoff timer: after raising
//! one, further events within the holdoff window do not interrupt
//! again. This trades latency for throughput — one of the software
//! overheads the DMA baseline carries in Figure 2 when interrupts (as
//! opposed to busy polling) are used.

use lauberhorn_sim::{SimDuration, SimTime};

/// Per-queue interrupt moderation state.
#[derive(Debug, Clone, Copy)]
pub struct Moderation {
    holdoff: SimDuration,
    last_fire: Option<SimTime>,
}

impl Moderation {
    /// Creates a moderator with the given holdoff interval; zero
    /// disables moderation.
    pub fn new(holdoff: SimDuration) -> Self {
        Moderation {
            holdoff,
            last_fire: None,
        }
    }

    /// Asks to fire an interrupt at `now`.
    ///
    /// Returns `Some(at)` — the time the interrupt may be raised (now,
    /// or the end of the holdoff window) — and records it; or `None` if
    /// an interrupt is already scheduled within the window (the event
    /// will be observed by that interrupt's handler).
    pub fn request(&mut self, now: SimTime) -> Option<SimTime> {
        match self.last_fire {
            None => {
                self.last_fire = Some(now);
                Some(now)
            }
            Some(last) => {
                let window_end = last.saturating_add(self.holdoff);
                if now >= window_end {
                    self.last_fire = Some(now);
                    Some(now)
                } else {
                    None
                }
            }
        }
    }

    /// Resets state (e.g. when the driver re-arms the queue).
    pub fn reset(&mut self) {
        self.last_fire = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_request_fires_immediately() {
        let mut m = Moderation::new(SimDuration::from_us(20));
        assert_eq!(m.request(SimTime::from_us(5)), Some(SimTime::from_us(5)));
    }

    #[test]
    fn requests_within_holdoff_are_suppressed() {
        let mut m = Moderation::new(SimDuration::from_us(20));
        m.request(SimTime::from_us(0));
        assert_eq!(m.request(SimTime::from_us(10)), None);
        assert_eq!(m.request(SimTime::from_us(19)), None);
        assert_eq!(m.request(SimTime::from_us(20)), Some(SimTime::from_us(20)));
    }

    #[test]
    fn zero_holdoff_never_suppresses() {
        let mut m = Moderation::new(SimDuration::ZERO);
        for t in 0..10 {
            assert!(m.request(SimTime::from_ns(t)).is_some());
        }
    }

    #[test]
    fn reset_rearms() {
        let mut m = Moderation::new(SimDuration::from_us(20));
        m.request(SimTime::from_us(0));
        assert_eq!(m.request(SimTime::from_us(1)), None);
        m.reset();
        assert!(m.request(SimTime::from_us(2)).is_some());
    }
}
