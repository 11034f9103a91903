//! PCIe/DMA engine model.
//!
//! Moves data between a NIC and host memory over the system interconnect.
//! Characteristics the paper's comparisons rest on (§III, §V):
//! * a PCIe round trip costs hundreds of nanoseconds ("a PCIe round-trip can
//!   take up to 400 ns", citing Kalia et al.);
//! * DMA *writes* (NIC→host) are cheap and pipelined, DMA *reads*
//!   (host→NIC, needed to forward data from host memory) are slower — this
//!   asymmetry is what penalizes CPU- and HyperLoop-style forwarding.
//!
//! Each direction is an independently serializing channel with its own
//! bandwidth; an operation's completion time is returned to the caller,
//! which sequences its own events accordingly. Memory contents are mutated
//! eagerly; simulated time ordering is enforced by the callers acting only
//! at/after the returned completion times.

use std::ops::Range;

use bytes::Bytes;
use nadfs_simnet::{Bandwidth, Dur, Time};

use crate::memory::SharedMemory;

/// DMA engine cost parameters.
#[derive(Clone, Debug)]
pub struct DmaConfig {
    /// NIC → host (ingress writes). Provisioned at/above line rate per the
    /// paper's "storage ingests at network bandwidth" assumption.
    pub(crate) write_bw: Bandwidth,
    /// Host → NIC (egress reads / fetch for forwarding).
    pub read_bw: Bandwidth,
    /// One-way PCIe latency per operation.
    pub latency: Dur,
    /// Engine occupancy per descriptor (issue overhead).
    pub per_op: Dur,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            // 64 GB/s write direction: does not bottleneck a 400 Gbit/s NIC.
            write_bw: Bandwidth::from_gbyte_per_sec(64),
            // ~26 GB/s effective read direction (typical RNIC host-fetch;
            // calibrated to the paper's RPC-family asymptotes: Fig 6 labels
            // RPC and RPC+RDMA at 26 GB/s for 1 MiB writes).
            read_bw: Bandwidth::from_gbyte_per_sec(26),
            latency: Dur::from_ns(200),
            per_op: Dur::from_ns(10),
        }
    }
}

nadfs_simnet::declare_stats! {
    /// The engine: two serializing channels over shared host memory.
    pub struct DmaEngine {
        cfg: DmaConfig,
        mem: SharedMemory,
        write_busy_until: Time,
        read_busy_until: Time,
        pub writes_issued: u64,
        pub reads_issued: u64,
        pub bytes_written: u64,
        pub bytes_read: u64,
        /// Time each channel was occupied (what `write_busy_until` and
        /// `read_busy_until` integrate), in picoseconds.
        pub write_busy_ps: u64 => counter,
        pub read_busy_ps: u64 => counter,
    }
}

impl DmaEngine {
    pub fn new(cfg: DmaConfig, mem: SharedMemory) -> DmaEngine {
        DmaEngine {
            cfg,
            mem,
            write_busy_until: Time::ZERO,
            read_busy_until: Time::ZERO,
            writes_issued: 0,
            reads_issued: 0,
            bytes_written: 0,
            bytes_read: 0,
            write_busy_ps: 0,
            read_busy_ps: 0,
        }
    }

    /// Issue a DMA write of a copy of `data` to host `addr` at time `now`.
    /// Returns the time at which the data is durably in host memory.
    pub fn write(&mut self, now: Time, addr: u64, data: &[u8]) -> Time {
        let done = self.occupy_write(now, data.len());
        self.mem.borrow_mut().write(addr, data);
        done
    }

    /// Land a packet's (or batch's) buffer at host `addr` at time `now` —
    /// the cost of [`Self::write`]; memory keeps the buffer itself when
    /// other handles share it and copies it when the caller's handle is
    /// the only one, so a pooled buffer can go back to its ring.
    pub fn land(&mut self, now: Time, addr: u64, data: &Bytes) -> Time {
        let done = self.occupy_write(now, data.len());
        self.mem.borrow_mut().land(addr, data);
        done
    }

    /// [`Self::write`] a packet to `addr` in the host staging slot `slot`.
    pub fn stage(&mut self, now: Time, slot: Range<u64>, addr: u64, data: &[u8]) -> Time {
        let done = self.occupy_write(now, data.len());
        self.mem.borrow_mut().stage(slot, addr, data);
        done
    }

    /// Queue a `len`-byte transfer on the write channel at `now`. Returns
    /// when the bytes are durable.
    fn occupy_write(&mut self, now: Time, len: usize) -> Time {
        let transfer = self.cfg.write_bw.tx_time(len as u64);
        let start = now.max(self.write_busy_until) + self.cfg.per_op;
        let done = start + transfer + self.cfg.latency;
        // The channel is occupied for the transfer (not the flight latency).
        self.write_busy_until = start + transfer;
        self.write_busy_ps += (self.cfg.per_op + transfer).ps();
        self.writes_issued += 1;
        self.bytes_written += len as u64;
        done
    }

    /// Issue a DMA read of `len` bytes from host `addr` at time `now`.
    /// Returns the fetched bytes — a slice of the stored buffer when one
    /// extent holds them — and the time they are available at the NIC.
    pub fn read(&mut self, now: Time, addr: u64, len: usize) -> (Bytes, Time) {
        let done = self.occupy_read(now, len);
        (self.mem.borrow().read_bytes(addr, len), done)
    }

    /// Queue a `len`-byte transfer on the read channel at `now`: the
    /// channel is held from when it frees up through issue, PCIe latency
    /// and transfer. Returns when the bytes are at the NIC.
    fn occupy_read(&mut self, now: Time, len: usize) -> Time {
        let held = self.cfg.per_op + self.cfg.latency + self.cfg.read_bw.tx_time(len as u64);
        let done = now.max(self.read_busy_until) + held;
        self.read_busy_until = done;
        self.read_busy_ps += held.ps();
        self.reads_issued += 1;
        self.bytes_read += len as u64;
        done
    }

    /// DMA-read `out.len()` bytes from host `addr` into a caller-owned
    /// (e.g. pooled) buffer — same cost model as [`Self::read`], no
    /// allocation. Returns the time the bytes are available at the NIC.
    pub fn read_into(&mut self, now: Time, addr: u64, out: &mut [u8]) -> Time {
        let done = self.occupy_read(now, out.len());
        self.mem.borrow().read_into(addr, out);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::HostMemory;

    fn engine() -> DmaEngine {
        DmaEngine::new(DmaConfig::default(), HostMemory::new())
    }

    #[test]
    fn write_completion_includes_latency_and_serialization() {
        let mut e = engine();
        let cfg = e.cfg.clone();
        let done = e.write(Time::ZERO, 0x1000, &[7u8; 4096]);
        let expect = cfg.per_op + cfg.write_bw.tx_time(4096) + cfg.latency;
        assert_eq!(done, Time::ZERO + expect);
        assert_eq!(e.mem.borrow().read(0x1000, 4096), vec![7u8; 4096]);
    }

    #[test]
    fn land_costs_what_write_costs() {
        let (mut e, mut e2) = (engine(), engine());
        let payload = Bytes::from(vec![3u8; 3000]);
        for at in [Time::ZERO, Time(5_000)] {
            let landed = e.land(at, 0x1000, &payload.slice(..1500));
            assert_eq!(landed, e2.write(at, 0x1000, &payload[..1500]));
        }
        assert_eq!((e.writes_issued, e.bytes_written), (2, 3000));
        assert_eq!(e.write_busy_ps, e2.write_busy_ps);
        let (read, _) = e.read(Time::ZERO, 0x1000, 1500);
        assert_eq!(read.as_ptr(), payload.as_ptr(), "a read slices what landed");
    }

    #[test]
    fn writes_serialize_on_the_channel() {
        let mut e = engine();
        let d1 = e.write(Time::ZERO, 0, &[0u8; 1 << 20]);
        let d2 = e.write(Time::ZERO, 1 << 20, &[0u8; 1 << 20]);
        assert!(d2 > d1);
        // Second transfer must start after the first's serialization.
        let cfg = e.cfg.clone();
        let ser = cfg.write_bw.tx_time(1 << 20);
        assert!(d2 >= Time::ZERO + ser + ser);
    }

    #[test]
    fn read_returns_written_bytes_with_read_cost() {
        let mut e = engine();
        e.write(Time::ZERO, 64, b"abcdef");
        let (data, done) = e.read(Time(1_000_000), 64, 6);
        assert_eq!(&data[..], b"abcdef");
        let cfg = e.cfg.clone();
        assert_eq!(
            done,
            Time(1_000_000) + cfg.per_op + cfg.latency + cfg.read_bw.tx_time(6)
        );
    }

    #[test]
    fn read_into_matches_read_in_data_and_cost() {
        let mut e = engine();
        e.write(Time::ZERO, 512, b"streaming-ec");
        let mut e2 = engine();
        e2.write(Time::ZERO, 512, b"streaming-ec");
        let (data, t1) = e.read(Time(500), 512, 12);
        let mut buf = vec![0xAAu8; 12];
        let t2 = e2.read_into(Time(500), 512, &mut buf);
        assert_eq!(&data[..], &buf[..]);
        assert_eq!(t1, t2, "identical cost model");
        assert_eq!(e2.reads_issued, 1);
        assert_eq!(e2.bytes_read, 12);
    }

    #[test]
    fn read_channel_is_slower_than_write_channel() {
        let mut e = engine();
        let w = e.write(Time::ZERO, 0, &[0u8; 1 << 20]);
        let mut e2 = engine();
        let (_, r) = e2.read(Time::ZERO, 0, 1 << 20);
        assert!(
            r.since(Time::ZERO).ps() > w.since(Time::ZERO).ps(),
            "DMA read must cost more than DMA write for equal size"
        );
    }

    #[test]
    fn counters_account_operations() {
        let mut e = engine();
        e.write(Time::ZERO, 0, &[0u8; 10]);
        e.write(Time::ZERO, 0, &[0u8; 20]);
        e.read(Time::ZERO, 0, 5);
        assert_eq!(e.writes_issued, 2);
        assert_eq!(e.bytes_written, 30);
        assert_eq!(e.reads_issued, 1);
        assert_eq!(e.bytes_read, 5);
    }
}
