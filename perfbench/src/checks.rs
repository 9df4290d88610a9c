//! Output checks. Each is a pure function over frames or counters so a
//! deliberately corrupted input can be shown to fail it; [`Egress`]
//! applies them to every frame a workload drains.

use crate::feed::{dst_of, Feed};
use crate::stats::{ns_u32, SplitMix};
use routebricks::crypto::{EspDecryptor, SecurityAssociation};
use routebricks::lookup::LpmLookup;
use routebricks::packet::ethernet::HEADER_LEN as ETH_HLEN;
use routebricks::packet::ipv4::{IpProto, MIN_HEADER_LEN as IP_HLEN};
use routebricks::packet::{Ipv4Header, Packet};
use routebricks::telemetry::Ledger;

/// Conservation: every offered frame was delivered or booked as a
/// ledger drop, nothing is left in flight, and the ledger agrees with
/// the harness's own counts.
pub fn ledger(offered: u64, delivered: u64, ledger: &Ledger) -> Result<(), String> {
    if !ledger.balances() {
        return Err(format!("ledger does not balance: {}", ledger.to_json()));
    }
    if ledger.sourced != offered || ledger.forwarded != delivered {
        return Err(format!(
            "ledger sourced/forwarded {}/{} != harness offered/delivered {offered}/{delivered}",
            ledger.sourced, ledger.forwarded
        ));
    }
    if ledger.in_flight != 0 || delivered + ledger.dropped_total() != offered {
        return Err(format!(
            "delivered {delivered} + dropped {} + in flight {} != offered {offered}",
            ledger.dropped_total(),
            ledger.in_flight
        ));
    }
    Ok(())
}

/// Minimal forwarding: the egress frame is the ingress frame, byte for
/// byte.
pub fn forwarded(expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "forwarded frame differs from ingress ({} vs {} bytes)",
            got.len(),
            expected.len()
        ))
    }
}

/// IP routing: the egress header verifies and its TTL is one less than
/// at ingress.
pub fn routed(ingress_ttl: u8, got: &[u8]) -> Result<(), String> {
    let hdr = got
        .get(ETH_HLEN..)
        .ok_or("routed frame shorter than Ethernet")
        .and_then(|ip| Ipv4Header::parse(ip).map_err(|_| "routed frame has a bad IPv4 header"))?;
    if hdr.ttl + 1 != ingress_ttl {
        return Err(format!("routed TTL {} != {} - 1", hdr.ttl, ingress_ttl));
    }
    Ok(())
}

/// IP routing: the frame left on the port a reference LPM picks for its
/// destination (next hop `h` is port `h mod ports`).
pub fn route_port(
    dst: u32,
    port: usize,
    ports: usize,
    reference: &impl LpmLookup,
) -> Result<(), String> {
    match reference.lookup(dst) {
        Some(hop) if usize::from(hop) % ports == port => Ok(()),
        want => Err(format!(
            "{} left on port {port}, reference LPM says {want:?}",
            std::net::Ipv4Addr::from(dst)
        )),
    }
}

/// IPsec: the egress frame is an ESP tunnel packet that opens under the
/// gateway's SA back to exactly the ingress IPv4 datagram.
pub fn esp_inner(sa: &SecurityAssociation, inner: &[u8], got: &[u8]) -> Result<(), String> {
    let outer = got
        .get(ETH_HLEN..)
        .ok_or("ESP frame shorter than Ethernet")
        .and_then(|ip| Ipv4Header::parse(ip).map_err(|_| "ESP frame has a bad outer header"))?;
    if outer.proto != IpProto::Esp {
        return Err(format!("outer protocol {:?} is not ESP", outer.proto));
    }
    let opened = EspDecryptor::new(sa)
        .open(&got[ETH_HLEN + IP_HLEN..])
        .map_err(|e| format!("ESP open failed: {e:?}"))?;
    if opened != inner {
        return Err("ESP payload does not decrypt to the ingress datagram".into());
    }
    Ok(())
}

/// What every drained frame is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Byte-identical to the ingress frame (egress in ingress order).
    Forward,
    /// Valid header with TTL one less than `ttl`.
    Route {
        /// TTL the frames were generated with.
        ttl: u8,
    },
    /// ESP; a seeded sample is decrypted after the run.
    Ipsec,
}

/// ESP frames kept for decryption per run.
const MAX_SAMPLES: usize = 256;
/// Mean egress distance between ESP samples.
const SAMPLE_STRIDE: u64 = 2048;

/// Per-frame egress checking and accounting for one run.
pub struct Egress {
    expect: Expect,
    /// Frames drained so far.
    pub delivered: u64,
    /// L2 bytes drained so far.
    pub bytes: u64,
    /// Failed checks.
    pub failures: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Egress index, equal to the ingress index on single-path graphs.
    seq: u64,
    samples: Vec<(u64, Packet)>,
    next_sample: u64,
    rng: SplitMix,
    /// Due-to-drain latencies (ns) while recording.
    pub latency: Option<Vec<u32>>,
    /// `(destination, egress port)` pairs while recording.
    pub ports: Option<Vec<(u32, usize)>>,
}

impl Egress {
    /// A fresh checker; `seed` picks the ESP sample.
    pub fn new(expect: Expect, seed: u64) -> Egress {
        let mut rng = SplitMix::new(seed ^ 0x5a3b);
        Egress {
            expect,
            delivered: 0,
            bytes: 0,
            failures: 0,
            first_failure: None,
            seq: 0,
            samples: Vec::new(),
            next_sample: rng.below(SAMPLE_STRIDE),
            rng,
            latency: None,
            ports: None,
        }
    }

    /// Checks and accounts one drained frame from `port`, drained at
    /// `now_ns` on the clock its `meta.rx_ns` due time was stamped with.
    #[inline]
    pub fn on(&mut self, port: usize, pkt: Packet, now_ns: u64, feed: &Feed) {
        self.delivered += 1;
        self.bytes += pkt.len() as u64;
        if let Some(lat) = &mut self.latency {
            lat.push(ns_u32(now_ns.saturating_sub(pkt.meta.rx_ns)));
        }
        let verdict = match self.expect {
            Expect::Forward => forwarded(feed.expected(self.seq), pkt.data()),
            Expect::Route { ttl } => {
                if let Some(ports) = &mut self.ports {
                    ports.push((dst_of(pkt.data()), port));
                }
                routed(ttl, pkt.data())
            }
            Expect::Ipsec => {
                if self.seq == self.next_sample && self.samples.len() < MAX_SAMPLES {
                    self.samples.push((self.seq, pkt));
                    self.next_sample += 1 + self.rng.below(2 * SAMPLE_STRIDE);
                }
                Ok(())
            }
        };
        self.seq += 1;
        if let Err(e) = verdict {
            self.fail(e);
        }
    }

    /// Books a failed check.
    pub fn fail(&mut self, why: String) {
        self.failures += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Decrypts the ESP sample against the ingress frames; returns how
    /// many frames were opened.
    pub fn verify_esp(&mut self, sa: &SecurityAssociation, feed: &Feed) -> usize {
        let samples = std::mem::take(&mut self.samples);
        for (k, pkt) in &samples {
            if let Err(e) = esp_inner(sa, &feed.expected(*k)[ETH_HLEN..], pkt.data()) {
                self.fail(format!("egress frame {k}: {e}"));
            }
        }
        samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routebricks::crypto::EspEncryptor;
    use routebricks::lookup::{LinearTable, RouteTable};
    use routebricks::packet::builder::PacketSpec;
    use routebricks::packet::ipv4;
    use routebricks::telemetry::DropCause;

    fn frame() -> Packet {
        PacketSpec::udp()
            .src("10.0.0.1:1000")
            .unwrap()
            .dst("10.9.0.1:80")
            .unwrap()
            .frame_len(128)
            .build()
    }

    #[test]
    fn ledger_check_catches_a_lost_frame() {
        let good = Ledger {
            sourced: 10,
            forwarded: 9,
            in_flight: 0,
            ..Ledger::default()
        };
        let mut with_drop = good;
        with_drop.add(DropCause::NoRoute, 1);
        assert!(ledger(10, 9, &with_drop).is_ok());
        assert!(ledger(10, 9, &good).is_err(), "unbooked loss");
        assert!(ledger(11, 9, &with_drop).is_err(), "harness disagrees");
    }

    #[test]
    fn forward_check_catches_a_flipped_byte() {
        let f = frame();
        assert!(forwarded(f.data(), f.data()).is_ok());
        let mut bad = f.clone();
        bad.data_mut()[40] ^= 1;
        assert!(forwarded(f.data(), bad.data()).is_err());
    }

    #[test]
    fn route_checks_catch_ttl_checksum_and_port() {
        let mut f = frame();
        ipv4::fast::dec_ttl(&mut f.data_mut()[ETH_HLEN..]).unwrap();
        assert!(routed(64, f.data()).is_ok());
        assert!(routed(65, f.data()).is_err(), "TTL not decremented");
        let mut bad = f.clone();
        bad.data_mut()[ETH_HLEN + 16] ^= 0x80;
        assert!(routed(64, bad.data()).is_err(), "stale checksum");

        let mut table = RouteTable::new();
        table.insert("0.0.0.0/0".parse().unwrap(), 0);
        table.insert("10.9.0.0/16".parse().unwrap(), 5);
        let lin = LinearTable::compile(&table);
        let dst = dst_of(f.data());
        assert!(route_port(dst, 5, 32, &lin).is_ok());
        assert!(route_port(dst, 0, 32, &lin).is_err());
    }

    #[test]
    fn esp_check_catches_a_corrupted_ciphertext() {
        let sa = SecurityAssociation::from_seed(0x5a);
        let inner = frame();
        let esp = EspEncryptor::new(&sa).seal(&inner.data()[ETH_HLEN..]);
        let mut out = vec![0u8; ETH_HLEN + IP_HLEN + esp.len()];
        out[..ETH_HLEN].copy_from_slice(&inner.data()[..ETH_HLEN]);
        Ipv4Header::new(
            "192.0.2.1".parse().unwrap(),
            "192.0.2.2".parse().unwrap(),
            IpProto::Esp,
            esp.len(),
        )
        .emit(&mut out[ETH_HLEN..])
        .unwrap();
        out[ETH_HLEN + IP_HLEN..].copy_from_slice(&esp);
        assert!(esp_inner(&sa, &inner.data()[ETH_HLEN..], &out).is_ok());
        let mut bad = out.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(esp_inner(&sa, &inner.data()[ETH_HLEN..], &bad).is_err());
        let mut other = inner.clone();
        other.data_mut()[60] ^= 1;
        assert!(esp_inner(&sa, &other.data()[ETH_HLEN..], &out).is_err());
    }
}
