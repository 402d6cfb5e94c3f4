//! Property tests on the MPTCP model: stream integrity, mask
//! enforcement, and scheduler equivalence under adversarial conditions;
//! plus the reassembly set and the sender's buffer-filling pump against
//! reference models.

use mpdash_link::{BandwidthProfile, LinkConfig, PathId};
use mpdash_mptcp::reassembly::IntervalSet;
use mpdash_mptcp::sender::{Sender, Transmit};
use mpdash_mptcp::{CcKind, MptcpConfig, MptcpSim, PathMask, SchedulerSpec};
use mpdash_sim::{Rate, SimDuration, SimTime};
use proptest::prelude::*;

fn download(sim: &mut MptcpSim, bytes: u64) {
    sim.send_app(bytes);
    let mut guard = 0u64;
    while sim.delivered() < bytes {
        assert!(
            sim.step().is_some(),
            "queue drained at {}/{}",
            sim.delivered(),
            bytes
        );
        guard += 1;
        assert!(guard < 50_000_000, "runaway simulation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Both stock schedulers and both congestion controllers deliver the
    /// stream intact under loss.
    #[test]
    fn all_scheduler_cc_combinations_deliver(
        sched_rr in any::<bool>(),
        cubic in any::<bool>(),
        loss_pm in 0u32..25,
        bytes in 50_000u64..1_500_000,
        seed in 0u64..500,
    ) {
        let wifi = LinkConfig::constant(4.0, SimDuration::from_millis(20))
            .with_loss(loss_pm as f64 / 1000.0, seed);
        let cell = LinkConfig::constant(2.5, SimDuration::from_millis(35))
            .with_loss(loss_pm as f64 / 1000.0, seed ^ 77);
        let cfg = MptcpConfig::two_path(wifi, cell)
            .with_scheduler(if sched_rr { SchedulerSpec::RoundRobin } else { SchedulerSpec::MinRtt })
            .with_cc(if cubic { CcKind::Cubic } else { CcKind::Reno });
        let mut sim = MptcpSim::new(cfg);
        download(&mut sim, bytes);
        prop_assert_eq!(sim.delivered(), bytes);
    }

    /// Toggling the mask at arbitrary moments never wedges or corrupts
    /// the stream, and a final WiFi-only mask stops cellular growth.
    #[test]
    fn mask_toggling_mid_transfer_is_safe(
        toggle_points in prop::collection::vec(1u64..4_000, 1..6),
        bytes in 500_000u64..2_000_000,
    ) {
        let wifi = LinkConfig::constant(4.0, SimDuration::from_millis(20));
        let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        let mut toggles: Vec<SimTime> = toggle_points
            .iter()
            .map(|&ms| SimTime::from_millis(ms))
            .collect();
        toggles.sort();
        sim.send_app(bytes);
        let mut next = 0usize;
        let mut cell_on = true;
        while sim.delivered() < bytes {
            prop_assert!(sim.step().is_some());
            if next < toggles.len() && sim.now() >= toggles[next] {
                cell_on = !cell_on;
                let mask = if cell_on {
                    PathMask::ALL
                } else {
                    PathMask::only(PathId::WIFI)
                };
                sim.set_desired_mask(mask);
                next += 1;
            }
        }
        prop_assert_eq!(sim.delivered(), bytes);
    }

    /// A time-varying bandwidth profile (including zero-rate windows that
    /// recover) never deadlocks the transport.
    #[test]
    fn bandwidth_swings_with_blackouts_complete(
        pattern in prop::collection::vec(0u8..8, 4..12),
        bytes in 100_000u64..800_000,
    ) {
        // Map digits to Mbps; 0 means blackout for that second. Force at
        // least one live slot so delivery is possible.
        let mut rates: Vec<Rate> = pattern
            .iter()
            .map(|&d| Rate::from_mbps_f64(d as f64))
            .collect();
        if rates.iter().all(|r| r.is_zero()) {
            rates[0] = Rate::from_mbps(4);
        }
        let wifi_profile =
            BandwidthProfile::from_samples(SimDuration::from_secs(1), &rates, true);
        let wifi = LinkConfig::constant(1.0, SimDuration::from_millis(20))
            .with_profile(wifi_profile);
        let cell = LinkConfig::constant(2.0, SimDuration::from_millis(30));
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        download(&mut sim, bytes);
        prop_assert_eq!(sim.delivered(), bytes);
    }

    /// SRTT estimates stay within physical bounds: at least the
    /// propagation RTT, at most propagation plus a full queue plus
    /// retransmission slack.
    #[test]
    fn srtt_is_physical(
        wifi_rtt_ms in 6u64..100,
        bytes in 200_000u64..1_000_000,
    ) {
        let one_way = SimDuration::from_millis(wifi_rtt_ms / 2 + 1);
        let wifi = LinkConfig::constant(4.0, one_way);
        let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        download(&mut sim, bytes);
        if let Some(srtt) = sim.srtt(PathId::WIFI) {
            let floor = one_way * 2;
            prop_assert!(srtt >= floor, "srtt {srtt} below propagation {floor}");
            // 64 KiB queue at 4 Mbps adds ≤ ~131 ms; allow 3x slack for
            // recovery-skewed samples.
            let ceil = floor + SimDuration::from_millis(400);
            prop_assert!(srtt <= ceil, "srtt {srtt} above bound {ceil}");
        }
    }
}

/// A byte-bitmap model of an [`IntervalSet`] over `[0, len)`.
struct Bitmap(Vec<bool>);

impl Bitmap {
    fn get(&self, i: u64) -> bool {
        self.0.get(i as usize).copied().unwrap_or(false)
    }

    /// One past the highest covered byte (0 when empty).
    fn high(&self) -> u64 {
        self.0.iter().rposition(|&b| b).map_or(0, |i| i as u64 + 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every insert shape the receiver produces — in-order appends,
    /// overlaps with the tail, exact duplicates and gapped
    /// out-of-order runs — leaves the set equal to a byte bitmap under
    /// `contiguous_from`, `covers`, `run_count` and `total_bytes`.
    #[test]
    fn interval_set_matches_a_byte_bitmap(ops in prop::collection::vec(any::<u64>(), 1..60)) {
        const SPAN: u64 = 400;
        let mut set = IntervalSet::new();
        let mut model = Bitmap(vec![false; SPAN as usize]);
        let mut inserted: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            let len = (op >> 8) % 48;
            let high = model.high();
            let start = match op % 4 {
                // In-order append at the current end.
                0 => high,
                // Overlap the tail of the highest run.
                1 => high.saturating_sub((op >> 16) % 32),
                // Exact duplicate of an earlier insert.
                2 if !inserted.is_empty() => {
                    let (s, e) = inserted[(op >> 24) as usize % inserted.len()];
                    set.insert(s, e);
                    continue;
                }
                // Anywhere, usually leaving gaps.
                _ => (op >> 32) % SPAN,
            };
            let end = (start + len).min(SPAN);
            set.insert(start, end);
            inserted.push((start, end));
            for i in start..end {
                model.0[i as usize] = true;
            }

            let mut runs = 0;
            for q in 0..=SPAN {
                if model.get(q) && (q == 0 || !model.get(q - 1)) {
                    runs += 1;
                }
                let mut head = q;
                while model.get(head) {
                    head += 1;
                }
                prop_assert_eq!(set.contiguous_from(q), head);
                for span in [0, 1, 7, 40] {
                    let covered = (q..q + span).all(|i| model.get(i));
                    prop_assert_eq!(set.covers(q, q + span), covered);
                }
            }
            prop_assert_eq!(set.run_count(), runs);
            prop_assert_eq!(set.total_bytes(), model.0.iter().filter(|&&b| b).count() as u64);
            prop_assert_eq!(set.is_empty(), runs == 0);
        }
    }

    /// `pump_into` only appends: handed a buffer that still holds every
    /// earlier transmit, it adds exactly the sequence a twin sender
    /// pumping into a fresh buffer produces, through random data
    /// arrivals, ACKs, time steps and shared-queue depths.
    #[test]
    fn pump_into_appends_what_a_fresh_buffer_receives(
        sched in 0usize..3,
        steps in prop::collection::vec(any::<u64>(), 1..80),
    ) {
        let spec = SchedulerSpec::ALL[sched];
        let mut kept = Sender::new(2, spec, CcKind::Reno);
        let mut fresh = Sender::new(2, spec, CcKind::Reno);
        let mut acc: Vec<Transmit> = Vec::new();
        let mut now = SimTime::ZERO;
        // Per path: highest cumulative ACK sent, end of data transmitted.
        let mut acked = [0u64; 2];
        let mut sent = [0u64; 2];
        for step in steps {
            now += SimDuration::from_millis(step % 90);
            let bytes = (step >> 8) % 40_000;
            kept.push_app_data(bytes);
            fresh.push_app_data(bytes);
            let depths = [
                Some((step >> 24) % 100_000).filter(|_| step & (1 << 40) != 0),
                Some((step >> 44) % 100_000),
            ];
            let before = acc.len();
            kept.pump_into(now, &depths, &mut acc);
            let mut out = Vec::new();
            fresh.pump_into(now, &depths, &mut out);
            prop_assert_eq!(&acc[before..], &out[..]);
            for t in &out {
                let p = t.path.index();
                sent[p] = sent[p].max(t.seq + t.len);
            }
            // Acknowledge a random prefix of each path's outstanding data
            // on both twins alike.
            for (p, path) in [PathId::WIFI, PathId::CELLULAR].into_iter().enumerate() {
                let span = sent[p] - acked[p];
                let ack = acked[p] + (step >> (48 + 4 * p)) % 16 * span / 15;
                acked[p] = ack;
                prop_assert_eq!(kept.on_ack(now, path, ack), fresh.on_ack(now, path, ack));
            }
        }
    }
}
