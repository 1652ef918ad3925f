//! Per-connection TCP congestion state.
//!
//! The model evolves the congestion window in **RTT rounds** while a flow is
//! actively sending, which is exactly the granularity the paper's Fig. 9
//! observes (per-message bandwidth of a 200 × 1 MB pingpong over time):
//!
//! * **slow start** doubles `cwnd` each round up to `ssthresh`;
//! * the first slow-start overshoot of the path's `BDP + queue` on an
//!   *unpaced* sender is catastrophic (a burst fills the drop-tail queue and
//!   loses a window's worth of segments): we model the Linux behaviour of a
//!   retransmission timeout — `ssthresh` is halved, `cwnd` collapses to the
//!   initial window and the sender stalls one RTO;
//! * a *paced* sender (GridMPI's software pacing, [Takano et al. 2005])
//!   spreads the burst and gets away with an ordinary fast recovery
//!   (`cwnd ×= β`);
//! * congestion avoidance grows `cwnd` per round following BIC's binary
//!   search towards the window at the previous loss (or Reno's additive
//!   increase), with the per-round increment capped by `smax`. Pacing keeps
//!   the loss rate during recovery low, so paced senders use a larger
//!   `smax` — this is the calibration handle for the ramp times of Fig. 9.

use desim::{SimDuration, SimTime};

use crate::config::CongestionControl;

/// Immutable per-connection parameters, derived from the kernel
/// configurations of both endpoints and the route (see
/// [`crate::Network::channel`]).
#[derive(Clone, Debug)]
pub struct TcpParams {
    /// Maximum segment size, bytes.
    pub mss: u64,
    /// Initial congestion window, bytes.
    pub init_cwnd: u64,
    /// Congestion control algorithm.
    pub cc: CongestionControl,
    /// Software pacing (GridMPI).
    pub pacing: bool,
    /// min(send buffer bound, receive buffer bound): the flow-control cap.
    pub max_window: u64,
    /// Route round-trip time.
    pub rtt: SimDuration,
    /// Route bandwidth-delay product, bytes.
    pub bdp: u64,
    /// Bottleneck drop-tail queue, bytes.
    pub queue_bytes: u64,
    /// Inter-site path: unpaced bursts can overflow the destination port
    /// queue long before a full BDP is in flight (Takano 2005).
    pub wan: bool,
    /// `tcp_slow_start_after_idle`.
    pub slow_start_after_idle: bool,
    /// Retransmission-timeout stall applied on a slow-start overshoot.
    pub rto: SimDuration,
    /// Congestion-avoidance increment cap, segments/RTT, when paced.
    pub smax_paced_segments: f64,
    /// Congestion-avoidance increment cap, segments/RTT, when unpaced.
    pub smax_unpaced_segments: f64,
    /// Multiplicative-decrease factor on fast recovery (BIC: 0.8).
    pub beta: f64,
}

impl TcpParams {
    /// Loss threshold: sending more than a BDP plus the bottleneck queue in
    /// one round overflows the drop-tail buffer.
    pub fn loss_limit(&self) -> u64 {
        self.bdp.saturating_add(self.queue_bytes)
    }

    /// The window at which the *first* slow-start burst of an unpaced WAN
    /// sender overflows the bottleneck port queue. Paced senders (and LAN
    /// paths, where link rates match) only lose at the full BDP + queue.
    pub fn first_burst_limit(&self) -> u64 {
        if self.wan && !self.pacing {
            self.queue_bytes.min(self.loss_limit())
        } else {
            self.loss_limit()
        }
    }

    fn smax_bytes(&self) -> f64 {
        let seg = if self.pacing {
            self.smax_paced_segments
        } else {
            self.smax_unpaced_segments
        };
        seg * self.mss as f64
    }
}

/// Congestion phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpPhase {
    /// Exponential growth up to `ssthresh`.
    SlowStart,
    /// BIC/Reno growth.
    CongestionAvoidance,
}

impl TcpPhase {
    /// Stable lower-snake-case name (used by observability exports).
    pub fn name(self) -> &'static str {
        match self {
            TcpPhase::SlowStart => "slow_start",
            TcpPhase::CongestionAvoidance => "congestion_avoidance",
        }
    }
}

/// What happened during one RTT round of active sending.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundOutcome {
    /// The window grew (or stayed put); keep sending.
    Progress,
    /// Fast recovery: a loss shrank the window but sending continues.
    FastRecovery,
    /// Slow-start overshoot caused a retransmission timeout: the sender
    /// stalls for the contained duration.
    RtoStall(SimDuration),
}

/// Mutable per-direction TCP connection state.
#[derive(Clone, Debug)]
pub struct TcpState {
    params: TcpParams,
    cwnd: f64,
    ssthresh: f64,
    phase: TcpPhase,
    /// BIC's memory of the window at the last loss.
    w_max: f64,
    /// Virtual time of the last segment handed to this connection.
    last_activity: SimTime,
    /// Set after the first slow-start overshoot so later losses use fast
    /// recovery.
    seen_loss: bool,
    /// BIC max-probing increment multiplier (doubles per round above
    /// `w_max`, capped by `smax`).
    probe: f64,
    /// Cumulative loss episodes (diagnostics).
    losses: u64,
    /// Consecutive injected-loss RTOs without progress: each one doubles
    /// the next stall (classic exponential RTO backoff, capped at 2⁶).
    /// Only the fault-injection path uses this — the organic overshoot
    /// RTO keeps its fixed duration so fault-free runs are untouched.
    rto_backoff: u32,
}

impl TcpState {
    /// Fresh connection in slow start.
    pub fn new(params: TcpParams) -> TcpState {
        let cwnd = params.init_cwnd as f64;
        TcpState {
            cwnd,
            ssthresh: f64::INFINITY,
            phase: TcpPhase::SlowStart,
            w_max: 0.0,
            last_activity: SimTime::ZERO,
            seen_loss: false,
            probe: 1.0,
            losses: 0,
            rto_backoff: 0,
            params,
        }
    }

    /// Connection parameters.
    pub fn params(&self) -> &TcpParams {
        &self.params
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current phase.
    pub fn phase(&self) -> TcpPhase {
        self.phase
    }

    /// Current slow-start threshold in bytes (`f64::INFINITY` until the
    /// first loss episode).
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Number of loss episodes so far.
    pub fn losses(&self) -> u64 {
        self.losses
    }

    /// Effective window: cwnd limited by socket-buffer flow control,
    /// never below one segment.
    pub fn effective_window(&self) -> u64 {
        (self.cwnd as u64)
            .min(self.params.max_window)
            .max(self.params.mss)
    }

    /// Instantaneous window-limited throughput cap, bytes/s.
    pub fn window_rate(&self) -> f64 {
        let rtt = self.params.rtt.as_secs_f64().max(1e-9);
        self.effective_window() as f64 / rtt
    }

    /// Account for the start of a transfer at `now`: applies
    /// slow-start-after-idle if the connection sat idle longer than an RTO.
    /// As in Linux (`tcp_cwnd_restart`), the window decays by half per RTO
    /// of idleness down to the initial window; `ssthresh` is kept.
    pub fn on_transfer_start(&mut self, now: SimTime) {
        if self.params.slow_start_after_idle && self.last_activity > SimTime::ZERO {
            let idle = now.since(self.last_activity);
            let rto = self.params.rto.as_nanos().max(1);
            let halvings = (idle.as_nanos() / rto) as i32;
            if halvings > 0 {
                self.cwnd =
                    (self.cwnd / 2f64.powi(halvings.min(60))).max(self.params.init_cwnd as f64);
                if self.cwnd < self.ssthresh {
                    self.phase = TcpPhase::SlowStart;
                }
            }
        }
        self.last_activity = now;
    }

    /// Mark activity at `now` (called as a flow progresses).
    pub fn touch(&mut self, now: SimTime) {
        self.last_activity = self.last_activity.max(now);
    }

    /// Apply one *injected* segment loss (fault injection). With a window
    /// large enough for fast retransmit to work (≥ 4 segments in flight,
    /// so triple duplicate acks can arrive) the connection fast-recovers:
    /// `ssthresh = β·cwnd` and congestion avoidance resumes immediately.
    /// With a smaller window the lost segment can only be recovered by a
    /// retransmission timeout: `ssthresh = cwnd/2`, the window collapses
    /// to the initial value, and the sender stalls one RTO — doubled for
    /// every consecutive loss-RTO (exponential backoff, capped at 2⁶).
    ///
    /// This is a separate entry point from [`TcpState::on_round`] so the
    /// organic overshoot path is byte-for-byte unchanged when no faults
    /// are injected.
    pub fn on_injected_loss(&mut self) -> RoundOutcome {
        self.losses += 1;
        self.seen_loss = true;
        self.w_max = self.cwnd;
        self.probe = 1.0;
        let mss = self.params.mss as f64;
        if self.cwnd >= 4.0 * mss {
            self.ssthresh = (self.params.beta * self.cwnd).max(2.0 * mss);
            self.cwnd = self.ssthresh;
            self.phase = TcpPhase::CongestionAvoidance;
            self.rto_backoff = 0;
            RoundOutcome::FastRecovery
        } else {
            self.ssthresh = (self.cwnd / 2.0).max(2.0 * mss);
            self.cwnd = self.params.init_cwnd as f64;
            self.phase = TcpPhase::SlowStart;
            let shift = self.rto_backoff.min(6);
            self.rto_backoff += 1;
            RoundOutcome::RtoStall(SimDuration::from_nanos(self.params.rto.as_nanos() << shift))
        }
    }

    /// Advance one RTT round of continuous sending: grow the window, then
    /// check the burst-loss condition.
    pub fn on_round(&mut self) -> RoundOutcome {
        // A full round of acked progress ends any injected-RTO backoff
        // sequence (integer bookkeeping only — no effect on the
        // floating-point window arithmetic of fault-free runs).
        self.rto_backoff = 0;
        let limit = self.params.loss_limit() as f64;
        // If flow control caps us below the loss limit the queue never
        // fills: the window just saturates at the buffer bound.
        let growth_cap = if (self.params.max_window as f64) < limit {
            self.params.max_window as f64
        } else {
            f64::INFINITY
        };
        match self.phase {
            TcpPhase::SlowStart => {
                self.cwnd = (self.cwnd * 2.0).min(growth_cap);
                if self.cwnd >= self.ssthresh {
                    self.cwnd = self.ssthresh;
                    self.phase = TcpPhase::CongestionAvoidance;
                }
            }
            TcpPhase::CongestionAvoidance => {
                let inc = match self.params.cc {
                    CongestionControl::Reno => self.params.mss as f64,
                    CongestionControl::Bic => {
                        if self.cwnd < self.w_max {
                            // Binary search towards the last loss point.
                            self.probe = 1.0;
                            ((self.w_max - self.cwnd) / 2.0).max(self.params.mss as f64 * 0.25)
                        } else {
                            // Max probing: the increment grows exponentially
                            // (slow-start-like) up to smax.
                            let inc = self.params.mss as f64 * self.probe;
                            self.probe = (self.probe * 2.0).min(64.0);
                            inc
                        }
                    }
                };
                self.cwnd = (self.cwnd + inc.min(self.params.smax_bytes())).min(growth_cap);
            }
        }
        // Burst-loss check: only possible when flow control allows a window
        // larger than the loss threshold.
        let thresh = if self.seen_loss {
            limit
        } else {
            self.params.first_burst_limit() as f64
        };
        if (self.effective_window() as f64) > thresh {
            self.losses += 1;
            self.w_max = self.cwnd;
            self.probe = 1.0;
            if !self.seen_loss && !self.params.pacing && self.params.wan {
                // First unpaced slow-start overshoot: a line-rate burst
                // overflows the queue, losing enough segments to force a
                // retransmission timeout.
                self.seen_loss = true;
                self.ssthresh = (self.params.beta * self.cwnd)
                    .min(limit)
                    .max(2.0 * self.params.mss as f64);
                self.cwnd = self.params.init_cwnd as f64;
                self.phase = TcpPhase::SlowStart;
                return RoundOutcome::RtoStall(self.params.rto);
            }
            self.seen_loss = true;
            self.cwnd = (limit * self.params.beta).max(2.0 * self.params.mss as f64);
            self.ssthresh = self.cwnd;
            self.phase = TcpPhase::CongestionAvoidance;
            return RoundOutcome::FastRecovery;
        }
        RoundOutcome::Progress
    }

    /// Ack-clocked growth for a transfer that completed within one RTT
    /// (too short for any [`TcpState::on_round`] to fire): in slow start
    /// every acked byte grows the window by a byte, in congestion
    /// avoidance by `mss·acked/cwnd`. Loss handling is left to the
    /// round-based path — short flows cannot sustain an overshoot burst.
    /// Returns a stall duration if the growth triggered the first-burst
    /// RTO of an unpaced WAN sender.
    pub fn on_short_ack(&mut self, acked: u64) -> Option<SimDuration> {
        // Congestion-window validation (RFC 2861): an application-limited
        // connection whose transfers never fill the current window does
        // not grow it.
        if (acked as f64) < self.cwnd {
            return None;
        }
        let limit = self.params.loss_limit() as f64;
        let growth_cap = if (self.params.max_window as f64) < limit {
            self.params.max_window as f64
        } else {
            limit
        };
        match self.phase {
            TcpPhase::SlowStart => {
                self.cwnd = (self.cwnd + acked as f64).min(growth_cap);
                if self.cwnd >= self.ssthresh {
                    self.cwnd = self.ssthresh.min(growth_cap);
                    self.phase = TcpPhase::CongestionAvoidance;
                }
            }
            TcpPhase::CongestionAvoidance => {
                let inc = self.params.mss as f64 * (acked as f64 / self.cwnd.max(1.0));
                self.cwnd = (self.cwnd + inc.min(self.params.smax_bytes())).min(growth_cap);
            }
        }
        if !self.seen_loss
            && (self.effective_window() as f64) > self.params.first_burst_limit() as f64
            && !self.params.pacing
            && self.params.wan
        {
            self.losses += 1;
            self.seen_loss = true;
            self.w_max = self.cwnd;
            self.ssthresh = (self.params.beta * self.cwnd)
                .min(limit)
                .max(2.0 * self.params.mss as f64);
            self.cwnd = self.params.init_cwnd as f64;
            self.phase = TcpPhase::SlowStart;
            return Some(self.params.rto);
        }
        None
    }

    /// True if no later [`TcpState::on_round`] can return
    /// [`RoundOutcome::RtoStall`]: only the first slow-start overshoot of
    /// an unpaced WAN sender stalls.
    pub(crate) fn rounds_cannot_stall(&self) -> bool {
        self.seen_loss || self.params.pacing || !self.params.wan
    }

    /// True once the window can grow no further (saturated by flow control).
    pub fn saturated(&self) -> bool {
        let limit = self.params.loss_limit();
        self.params.max_window < limit && self.effective_window() >= self.params.max_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(max_window: u64, pacing: bool) -> TcpParams {
        TcpParams {
            mss: 1448,
            init_cwnd: 3 * 1448,
            cc: CongestionControl::Bic,
            pacing,
            max_window,
            rtt: SimDuration::from_micros(11_600),
            bdp: 1_450_000,
            queue_bytes: 512 * 1024,
            wan: true,
            slow_start_after_idle: true,
            rto: SimDuration::from_millis(200),
            smax_paced_segments: 8.0,
            smax_unpaced_segments: 2.0,
            beta: 0.8,
        }
    }

    #[test]
    fn slow_start_doubles_until_buffer_bound() {
        // Small socket buffers (the untuned grid case): the window parks at
        // the buffer bound and no loss ever happens.
        let mut t = TcpState::new(params(131_072, false));
        for _ in 0..40 {
            assert_eq!(t.on_round(), RoundOutcome::Progress);
        }
        assert_eq!(t.effective_window(), 131_072);
        assert_eq!(t.losses(), 0);
        assert!(t.saturated());
        // 131072 B / 11.6 ms ≈ 11.3 MB/s ≈ 90 Mbps — the Fig. 3 plateau.
        let mbps = t.window_rate() * 8.0 / 1e6;
        assert!((80.0..100.0).contains(&mbps), "mbps={mbps}");
    }

    #[test]
    fn unpaced_overshoot_hits_rto_collapse() {
        // Big buffers (tuned): slow start overshoots BDP+queue and collapses.
        let mut t = TcpState::new(params(4 << 20, false));
        let mut stalled = false;
        for _ in 0..20 {
            if let RoundOutcome::RtoStall(d) = t.on_round() {
                stalled = true;
                assert_eq!(d.as_millis(), 200);
                break;
            }
        }
        assert!(stalled, "expected an RTO collapse");
        assert_eq!(t.cwnd(), 3 * 1448);
        assert_eq!(t.phase(), TcpPhase::SlowStart);
    }

    #[test]
    fn paced_overshoot_only_fast_recovers() {
        let mut t = TcpState::new(params(4 << 20, true));
        let mut recovered = false;
        for _ in 0..30 {
            match t.on_round() {
                RoundOutcome::RtoStall(_) => panic!("paced sender must not RTO"),
                RoundOutcome::FastRecovery => {
                    recovered = true;
                    break;
                }
                RoundOutcome::Progress => {}
            }
        }
        assert!(recovered);
        // After β-decrease the window stays near the loss limit (above BDP).
        assert!(t.cwnd() as f64 >= 0.8 * 1_450_000.0);
    }

    #[test]
    fn unpaced_recovery_is_slower_than_paced() {
        fn rounds_to_90_percent(pacing: bool) -> u32 {
            let mut t = TcpState::new(params(4 << 20, pacing));
            let target = (0.9 * t.params().bdp as f64) as u64;
            for round in 0..100_000 {
                t.on_round();
                if t.effective_window() >= target && t.losses() > 0 {
                    return round;
                }
            }
            u32::MAX
        }
        let paced = rounds_to_90_percent(true);
        let unpaced = rounds_to_90_percent(false);
        assert!(
            unpaced > 2 * paced,
            "unpaced={unpaced} rounds, paced={paced} rounds"
        );
    }

    #[test]
    fn idle_restart_resets_cwnd() {
        let mut t = TcpState::new(params(4 << 20, false));
        for _ in 0..6 {
            t.on_round();
        }
        let grown = t.cwnd();
        assert!(grown > 3 * 1448);
        t.touch(SimTime::from_nanos(1_000_000));
        // Less than an RTO of idleness: no decay.
        t.on_transfer_start(SimTime::from_nanos(100_000_000));
        assert_eq!(t.cwnd(), grown);
        // Two RTOs idle: the window decays by half per RTO (Linux
        // tcp_cwnd_restart), re-entering slow start.
        t.on_transfer_start(SimTime::from_nanos(501_000_000));
        assert_eq!(t.cwnd(), grown / 4);
        assert_eq!(t.phase(), TcpPhase::SlowStart);
        // A very long idle decays all the way to the initial window.
        t.touch(SimTime::from_nanos(501_000_000));
        t.on_transfer_start(SimTime::from_nanos(60_000_000_000));
        assert_eq!(t.cwnd(), 3 * 1448);
    }

    #[test]
    fn effective_window_floor_is_one_mss() {
        let mut p = params(4 << 20, false);
        p.init_cwnd = 1;
        let t = TcpState::new(p);
        assert_eq!(t.effective_window(), 1448);
    }

    #[test]
    fn injected_loss_fast_recovers_when_window_allows() {
        let mut t = TcpState::new(params(4 << 20, false));
        for _ in 0..5 {
            t.on_round();
        }
        let before = t.cwnd() as f64;
        assert!(before >= 4.0 * 1448.0);
        assert_eq!(t.on_injected_loss(), RoundOutcome::FastRecovery);
        assert_eq!(t.phase(), TcpPhase::CongestionAvoidance);
        assert!((t.cwnd() as f64) < before);
        assert!((t.ssthresh() - 0.8 * before).abs() < 2.0);
        assert_eq!(t.losses(), 1);
    }

    #[test]
    fn injected_loss_backoff_doubles_then_resets() {
        // Tiny initial window: every injected loss is an RTO.
        let mut p = params(4 << 20, false);
        p.init_cwnd = 1448;
        let mut t = TcpState::new(p);
        let stall = |t: &mut TcpState| match t.on_injected_loss() {
            RoundOutcome::RtoStall(d) => d.as_millis(),
            other => panic!("expected RTO, got {other:?}"),
        };
        assert_eq!(stall(&mut t), 200);
        assert_eq!(stall(&mut t), 400);
        assert_eq!(stall(&mut t), 800);
        // A clean round of progress resets the backoff sequence.
        t.on_round();
        assert_eq!(stall(&mut t), 200);
        // The exponent is capped at 2^6.
        for _ in 0..20 {
            stall(&mut t);
        }
        assert_eq!(stall(&mut t), 200 * 64);
    }
}
