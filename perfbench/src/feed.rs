//! The benchmark's wire: seeded frames and Poisson arrival gaps.

use crate::stats::SplitMix;
use routebricks::packet::checksum::checksum;
use routebricks::packet::ethernet::HEADER_LEN as ETH_HLEN;
use routebricks::packet::Packet;
use routebricks::workload::{FlowGenConfig, SizeDist, SynthTrace, TraceConfig};

/// Frames and arrival gaps generated from one seed.
pub struct Feed {
    frames: Vec<Packet>,
    /// Destination addresses written over the frames' own (route
    /// workload); empty = frames go out as generated.
    dsts: Vec<u32>,
    /// Inter-arrival gaps in ns, scaled to the open-loop rate exactly.
    gaps_ns: Vec<f64>,
    rate_pps: f64,
}

impl Feed {
    /// Generates `frames` frames from an [`rb_workload`] Poisson trace
    /// at `rate_pps`, plus `dsts` uniformly random destinations.
    pub fn generate(
        seed: u64,
        sizes: &SizeDist,
        frames: usize,
        dsts: usize,
        rate_pps: f64,
    ) -> Feed {
        // The trace loops, so it needs enough records for a stable rate.
        let records = frames.max(65_536);
        let trace = SynthTrace::generate(&TraceConfig {
            packets: records,
            offered_bps: rate_pps * sizes.mean() * 8.0,
            sizes: sizes.clone(),
            flows: FlowGenConfig {
                seed: seed ^ 0xf10e,
                ..FlowGenConfig::default()
            },
            seed,
            ..TraceConfig::default()
        });
        let mut gaps_ns: Vec<f64> = Vec::with_capacity(records);
        let mut prev = 0u64;
        for p in &trace.packets {
            gaps_ns.push((p.arrival_ns - prev) as f64);
            prev = p.arrival_ns;
        }
        let scale = records as f64 * 1e9 / rate_pps / gaps_ns.iter().sum::<f64>();
        gaps_ns.iter_mut().for_each(|g| *g *= scale);
        let frames = trace.packets[..frames]
            .iter()
            .map(|p| {
                let mut pkt = p.materialize();
                pkt.meta.rx_ns = 0;
                pkt
            })
            .collect();
        let mut rng = SplitMix::new(seed ^ 0xd575);
        let dsts = (0..dsts).map(|_| rng.next_u64() as u32).collect();
        Feed {
            frames,
            dsts,
            gaps_ns,
            rate_pps,
        }
    }

    /// The `i`-th frame on the wire (a fresh copy).
    #[inline]
    pub fn frame(&self, i: u64) -> Packet {
        let mut pkt = self.frames[(i % self.frames.len() as u64) as usize].clone();
        if !self.dsts.is_empty() {
            set_dst(&mut pkt, self.dsts[(i % self.dsts.len() as u64) as usize]);
        }
        pkt
    }

    /// The bytes of the `i`-th frame when the feed rewrites nothing.
    #[inline]
    pub fn expected(&self, i: u64) -> &[u8] {
        debug_assert!(self.dsts.is_empty());
        self.frames[(i % self.frames.len() as u64) as usize].data()
    }

    /// Gap in ns before arrival `i + 1`.
    #[inline]
    pub fn gap_ns(&self, i: u64) -> f64 {
        self.gaps_ns[(i % self.gaps_ns.len() as u64) as usize]
    }

    /// The open-loop arrival rate in packets/s.
    pub fn rate(&self) -> f64 {
        self.rate_pps
    }

    /// The distinct frames.
    pub fn frames(&self) -> &[Packet] {
        &self.frames
    }

    /// The destination stream (empty unless rewriting).
    pub fn dsts(&self) -> &[u32] {
        &self.dsts
    }

    /// Mean frame length in bytes.
    pub fn mean_len(&self) -> f64 {
        self.frames.iter().map(|p| p.len() as f64).sum::<f64>() / self.frames.len() as f64
    }
}

/// Writes `dst` into an Ethernet/IPv4 frame and recomputes the header
/// checksum.
pub fn set_dst(pkt: &mut Packet, dst: u32) {
    let ip = &mut pkt.data_mut()[ETH_HLEN..ETH_HLEN + 20];
    ip[16..20].copy_from_slice(&dst.to_be_bytes());
    ip[10..12].copy_from_slice(&[0, 0]);
    let sum = checksum(ip);
    ip[10..12].copy_from_slice(&sum.to_be_bytes());
}

/// The IPv4 destination of an Ethernet/IPv4 frame.
pub fn dst_of(frame: &[u8]) -> u32 {
    let d = &frame[ETH_HLEN + 16..ETH_HLEN + 20];
    u32::from_be_bytes([d[0], d[1], d[2], d[3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use routebricks::packet::Ipv4Header;

    #[test]
    fn same_seed_same_inputs() {
        let a = Feed::generate(7, &SizeDist::abilene(), 64, 16, 1e5);
        let b = Feed::generate(7, &SizeDist::abilene(), 64, 16, 1e5);
        let c = Feed::generate(8, &SizeDist::abilene(), 64, 16, 1e5);
        for i in 0..200 {
            assert_eq!(a.frame(i).data(), b.frame(i).data());
            assert_eq!(a.gap_ns(i), b.gap_ns(i));
        }
        assert!((0..200).any(|i| a.frame(i).data() != c.frame(i).data()));
    }

    #[test]
    fn rewritten_destination_keeps_a_valid_header() {
        let f = Feed::generate(1, &SizeDist::worst_case(), 1, 8, 1e5);
        for i in 0..8 {
            let pkt = f.frame(i);
            assert_eq!(dst_of(pkt.data()), f.dsts()[i as usize]);
            Ipv4Header::parse(&pkt.data()[ETH_HLEN..]).expect("checksum fixed up");
        }
    }

    #[test]
    fn gaps_hit_the_rate() {
        let f = Feed::generate(3, &SizeDist::worst_case(), 4, 0, 250_000.0);
        let total: f64 = (0..65_536).map(|i| f.gap_ns(i)).sum();
        let rate = 65_536.0 / (total / 1e9);
        assert!((rate - 250_000.0).abs() < 1.0, "{rate}");
    }
}
