//! Generic network packets carried by the [`crate::fabric::Fabric`], and
//! the one boxed event a packet travels as.

use std::cell::RefCell;
use std::rc::Rc;

/// Payload carried inside a simulated network packet.
///
/// The simulator is generic over the payload so that the wire format lives in
/// a higher-level crate; the only thing the network needs is the on-wire size.
pub trait Payload: Clone + std::fmt::Debug + 'static {
    /// Total bytes this packet occupies on the wire (headers + data).
    fn wire_bytes(&self) -> u32;

    /// Release whatever the payload owns (data buffers, header vectors),
    /// leaving a value that costs nothing to keep around: a consumed
    /// packet's box waits in a [`PacketPool`] for its next trip and must
    /// not pin the last trip's buffers meanwhile.
    fn vacate(&mut self) {}
}

/// Node address on the fabric.
pub type NodeId = usize;

/// A packet in flight between two nodes.
#[derive(Clone, Debug)]
pub struct NetPacket<P: Payload> {
    pub src: NodeId,
    pub dst: NodeId,
    pub payload: P,
}

impl<P: Payload> NetPacket<P> {
    pub fn new(src: NodeId, dst: NodeId, payload: P) -> Self {
        NetPacket { src, dst, payload }
    }

    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        self.payload.wire_bytes()
    }
}

/// Where on its trip a [`PacketEvent`] is — who is to handle it next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Hop {
    /// NIC → fabric: queue on the source's uplink (an egress credit must
    /// have been taken).
    Submit,
    /// Fabric → itself: crossed the uplink and the switch; queue on the
    /// destination's downlink.
    AtSwitch,
    /// Fabric → the destination node's component: fully arrived at its
    /// NIC ingress.
    Arrive,
}

/// A packet as an engine event. It is boxed once, where the packet is
/// created; the same box then queues in the fabric, is re-scheduled from
/// hop to hop with `hop` updated, and is handed to the destination, which
/// reads the payload in place and returns the box to a [`PacketPool`].
#[derive(Debug)]
pub struct PacketEvent<P: Payload> {
    pub(crate) hop: Hop,
    pub pkt: NetPacket<P>,
}

impl<P: Payload> PacketEvent<P> {
    /// A packet ready to inject into the fabric.
    pub fn submit(pkt: NetPacket<P>) -> PacketEvent<P> {
        PacketEvent {
            hop: Hop::Submit,
            pkt,
        }
    }
}

/// Spare boxes beyond this are freed instead of kept: more than the
/// packets eight concurrent 1.5 MiB RS(6,3) writes keep in flight.
const MAX_SPARE_BOXES: usize = 8192;

/// Consumed packet boxes waiting for their next injection: a receiver
/// returns the box a packet arrived in, a sender takes one instead of
/// allocating. A host-side artefact, not a modelled resource — share one
/// between all NICs of a cluster so nodes that mostly receive feed nodes
/// that mostly send.
#[derive(Debug)]
pub struct PacketPool<P: Payload> {
    spare: Vec<Box<PacketEvent<P>>>,
}

/// Shared handle to a [`PacketPool`].
pub type SharedPacketPool<P> = Rc<RefCell<PacketPool<P>>>;

impl<P: Payload> PacketPool<P> {
    pub fn shared() -> SharedPacketPool<P> {
        Rc::new(RefCell::new(PacketPool { spare: Vec::new() }))
    }

    /// Box a packet for injection, reusing a spare box
    /// when there is one.
    pub fn submit(&mut self, src: NodeId, dst: NodeId, payload: P) -> Box<PacketEvent<P>> {
        match self.spare.pop() {
            Some(mut ev) => {
                ev.hop = Hop::Submit;
                ev.pkt.src = src;
                ev.pkt.dst = dst;
                ev.pkt.payload = payload;
                ev
            }
            None => Box::new(PacketEvent::submit(NetPacket::new(src, dst, payload))),
        }
    }

    /// Take back the box of a consumed packet.
    pub fn recycle(&mut self, mut ev: Box<PacketEvent<P>>) {
        if self.spare.len() < MAX_SPARE_BOXES {
            ev.pkt.payload.vacate();
            self.spare.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Blob(u32, Option<Rc<()>>);
    impl Payload for Blob {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
        fn vacate(&mut self) {
            self.1 = None;
        }
    }

    #[test]
    fn packet_reports_payload_size() {
        let p = NetPacket::new(0, 1, Blob(2048, None));
        assert_eq!(p.wire_bytes(), 2048);
        assert_eq!(p.src, 0);
        assert_eq!(p.dst, 1);
    }

    #[test]
    fn pool_reuses_the_box_and_vacates_its_payload() {
        let pool = PacketPool::<Blob>::shared();
        let owned = Rc::new(());
        let mut ev = pool
            .borrow_mut()
            .submit(3, 4, Blob(100, Some(owned.clone())));
        let addr = &*ev as *const PacketEvent<Blob>;
        ev.hop = Hop::Arrive;
        pool.borrow_mut().recycle(ev);
        assert_eq!(Rc::strong_count(&owned), 1, "spare box pins nothing");
        assert_eq!(pool.borrow().spare.len(), 1);
        let again = pool.borrow_mut().submit(5, 6, Blob(7, None));
        assert_eq!(&*again as *const PacketEvent<Blob>, addr, "same box");
        assert_eq!(again.hop, Hop::Submit);
        assert_eq!(
            (again.pkt.src, again.pkt.dst, again.pkt.payload.0),
            (5, 6, 7)
        );
        assert_eq!(pool.borrow().spare.len(), 0);
    }
}
