//! The per-node frame runtime: the framed substrate every real-byte
//! drive runs on.
//!
//! An `n`-site mesh is `n` independent [`Node`]s, each owning its write
//! halves, its inbox, and the meters of its own sends, communicating
//! *only* via frames:
//!
//! * [`mem_mesh`] — `n` nodes over in-process frame channels (each send
//!   delivers one complete `(method, body)` frame into the receiver's
//!   inbox; receivers block, senders don't);
//! * [`tcp_mesh`] — `n` nodes over the localhost TCP mesh, each node's
//!   inbound links serviced by its own reader threads (joined on drop);
//! * [`join_mesh`](crate::net::join_mesh) + [`Node::from_endpoint`] —
//!   the multi-process former: every participating process builds its
//!   own node over fixed localhost ports.
//!
//! The mesh is driven two ways. The thread-per-site and multi-process
//! runtimes hand each node its own thread or process.
//! [`ByteNetwork`] is the single-thread driver of the same nodes: it
//! sends through the sender's node, receives through the receiver's, and
//! merges the nodes' meters — so there is one send recipe, one receive
//! path and one mesh setup behind every framed drive.
//!
//! # Metering
//!
//! [`Node::send`] holds the framed send recipe (encode → overhead
//! identity → size cap → optional LZ → link write → meter): modeled
//! `|M|`, measured wire bytes, and the transport-meter identity
//! `wire == modeled + structural − saved`, into node-local [`NetStats`]
//! matrices. Merging every node's meters gives the whole-mesh picture.
//! Protocol messages go through [`Node::send`]; runtime control traffic
//! (acks, wave barriers, op shipments) goes through [`Node::send_ctrl`],
//! which is framed and wire-metered identically but contributes **zero**
//! modeled `|M|` and zero modeled messages — the model meters the
//! detection protocol, not the harness that schedules it.
//!
//! [`ByteNetwork`]: crate::net::ByteNetwork

use crate::net::frame::{
    FRAME_HEADER_BYTES, FRAME_METHOD_BYTES, MAX_FRAME_BYTES, METHOD_LZ, METHOD_STORED,
};
use crate::net::tcp::{self, Inbound, NodeEndpoint, ReaderGuard, TcpLink};
use crate::net::{decode_body, Compression, FrameCodec, TransportMeter};
use crate::{lz, ClusterError, NetStats, SiteId};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// How long a node waits for an expected frame before declaring the
/// peer dead. Generous: on a loaded single-core box, n site threads and
/// their readers all contend for the one CPU.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// A node's write halves.
#[derive(Debug)]
enum TxSide {
    /// In-process: each send delivers one complete frame into the
    /// destination's inbox channel.
    Mem(Vec<Option<Sender<Inbound>>>),
    /// TCP write halves (the destination's reader threads feed its
    /// inbox).
    Tcp(Vec<Option<TcpLink>>),
}

/// One site's endpoint in an `n`-node mesh: write halves to every peer,
/// a blocking inbox of inbound frames, and send-side meters. `Send` —
/// hand each node to its thread (or build one per process).
#[derive(Debug)]
pub struct Node {
    n: usize,
    me: SiteId,
    tx: TxSide,
    rx: Receiver<Inbound>,
    /// TCP reader threads for this node's inbound links (joined on drop).
    _guard: Option<ReaderGuard>,
    compression: Compression,
    /// Modeled `|M|` of this node's sends (row `me` of the global matrix).
    stats: NetStats,
    /// Measured on-wire bytes of this node's sends, framing included.
    wire: NetStats,
    meter: TransportMeter,
    scratch: Vec<u8>,
}

impl Node {
    fn new(
        n: usize,
        me: SiteId,
        tx: TxSide,
        rx: Receiver<Inbound>,
        guard: Option<ReaderGuard>,
    ) -> Self {
        Node {
            n,
            me,
            tx,
            rx,
            _guard: guard,
            compression: Compression::default(),
            stats: NetStats::new(n),
            wire: NetStats::new(n),
            meter: TransportMeter::default(),
            scratch: Vec::new(),
        }
    }

    /// Wrap a multi-process [`NodeEndpoint`] (from
    /// [`crate::net::join_mesh`]) as a runtime node.
    pub fn from_endpoint(n: usize, me: SiteId, ep: NodeEndpoint) -> Self {
        Node::new(n, me, TxSide::Tcp(ep.tx), ep.rx, Some(ep.guard))
    }

    /// Select the per-frame body packing (default: none).
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Number of nodes in the mesh.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// This node's id.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// Ship a **protocol** message: modeled `|M|` and wire accounting.
    pub fn send<M: FrameCodec>(&mut self, dst: SiteId, msg: &M) -> Result<(), ClusterError> {
        self.send_inner(dst, msg, true)
    }

    /// Ship a **control** frame: framed and wire-metered like any other
    /// frame, but zero modeled `|M|` and zero modeled messages. Control
    /// messages should declare `wire_size() == 0` (their whole encoding
    /// is structural overhead).
    pub fn send_ctrl<M: FrameCodec>(&mut self, dst: SiteId, msg: &M) -> Result<(), ClusterError> {
        self.send_inner(dst, msg, false)
    }

    fn send_inner<M: FrameCodec>(
        &mut self,
        dst: SiteId,
        msg: &M,
        modeled: bool,
    ) -> Result<(), ClusterError> {
        if dst == self.me {
            return Err(ClusterError::Loopback(dst));
        }
        if dst >= self.n {
            return Err(ClusterError::UnknownSite(dst));
        }
        self.scratch.clear();
        let structural = msg.encode_frame(&mut self.scratch);
        debug_assert_eq!(
            self.scratch.len(),
            msg.wire_size() + structural,
            "encoder broke the overhead identity"
        );
        // The frame bound applies to the *serialized* message, not to
        // whatever compression makes of it: receivers cap decompressed
        // output at MAX_FRAME_BYTES, so a message accepted here must be
        // decodable there regardless of how well it packed.
        if self.scratch.len() + FRAME_METHOD_BYTES > MAX_FRAME_BYTES {
            return Err(ClusterError::Transport(format!(
                "refusing to send an oversized message ({} > {MAX_FRAME_BYTES} bytes serialized)",
                self.scratch.len() + FRAME_METHOD_BYTES
            )));
        }
        let packed;
        let (method, body): (u8, &[u8]) = match self.compression {
            Compression::None => (METHOD_STORED, &self.scratch),
            Compression::Lz => {
                packed = lz::compress(&self.scratch);
                if packed.len() < self.scratch.len() {
                    (METHOD_LZ, &packed)
                } else {
                    (METHOD_STORED, &self.scratch)
                }
            }
        };
        match &mut self.tx {
            TxSide::Mem(chans) => {
                let chan = chans[dst]
                    .as_ref()
                    .expect("off-diagonal links always exist");
                chan.send((self.me, Ok((method, body.to_vec()))))
                    .map_err(|_| {
                        ClusterError::Transport(format!("node {dst} hung up (inbox closed)"))
                    })?;
            }
            TxSide::Tcp(links) => {
                let link = links[dst]
                    .as_mut()
                    .expect("off-diagonal links always exist");
                link.send_frame(method, body)?;
            }
        }
        let wire_len = FRAME_HEADER_BYTES + FRAME_METHOD_BYTES + body.len();
        if modeled {
            self.stats
                .record(self.me, dst, msg.wire_size(), msg.eqid_count());
            self.meter.modeled_bytes += msg.wire_size() as u64;
            self.meter.structural_bytes +=
                (structural + FRAME_HEADER_BYTES + FRAME_METHOD_BYTES) as u64;
        } else {
            // A control frame is all structure: every serialized byte is
            // harness overhead the |M| model ignores.
            self.meter.structural_bytes +=
                (self.scratch.len() + FRAME_HEADER_BYTES + FRAME_METHOD_BYTES) as u64;
        }
        self.wire.record(self.me, dst, wire_len, 0);
        self.meter.frames += 1;
        self.meter.wire_bytes += wire_len as u64;
        self.meter.saved_bytes += (self.scratch.len() - body.len()) as u64;
        Ok(())
    }

    /// Block for the next inbound frame: `(src, method, body)`. Errors
    /// forwarded by a reader thread (mid-stream disconnect) and timeouts
    /// surface as [`ClusterError::Transport`].
    pub fn recv(&mut self) -> Result<(SiteId, u8, Vec<u8>), ClusterError> {
        match self.recv_opt()? {
            Some(frame) => Ok(frame),
            None => Err(ClusterError::Transport(
                "timed out waiting for a frame (peer node gone?)".into(),
            )),
        }
    }

    /// Block up to [`RECV_TIMEOUT`] for a frame; `Ok(None)` on timeout.
    /// For idle loops (a site waiting for its next batch) where silence
    /// is normal, not a dead peer.
    pub fn recv_opt(&mut self) -> Result<Option<(SiteId, u8, Vec<u8>)>, ClusterError> {
        match self.rx.recv_timeout(RECV_TIMEOUT) {
            Ok((src, Ok((method, body)))) => Ok(Some((src, method, body))),
            Ok((src, Err(e))) => Err(ClusterError::Transport(format!(
                "link from node {src} failed: {e}"
            ))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::Transport(
                "inbox closed: all senders and readers are gone".into(),
            )),
        }
    }

    /// Non-blocking poll: `Ok(None)` when the inbox is currently empty.
    pub fn try_recv(&mut self) -> Result<Option<(SiteId, u8, Vec<u8>)>, ClusterError> {
        match self.rx.try_recv() {
            Ok((src, Ok((method, body)))) => Ok(Some((src, method, body))),
            Ok((src, Err(e))) => Err(ClusterError::Transport(format!(
                "link from node {src} failed: {e}"
            ))),
            Err(std::sync::mpsc::TryRecvError::Empty) => Ok(None),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(ClusterError::Transport(
                "inbox closed: all senders and readers are gone".into(),
            )),
        }
    }

    /// Block for the next frame and decode it as `M` (see
    /// [`decode_body`]).
    pub fn recv_msg<M: FrameCodec>(&mut self) -> Result<(SiteId, M), ClusterError> {
        let (src, method, body) = self.recv()?;
        Ok((src, decode_body(method, body)?))
    }

    /// Modeled `|M|` of this node's sends.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Measured on-wire bytes of this node's sends.
    pub fn wire_stats(&self) -> &NetStats {
        &self.wire
    }

    /// This node's transport counters.
    pub fn meter(&self) -> TransportMeter {
        self.meter
    }

    /// Reset this node's meters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.wire.reset();
        self.meter = TransportMeter::default();
    }
}

/// `n` nodes over in-process frame channels. Deterministic framing, no
/// sockets — the default substrate for thread-per-site runs.
pub fn mem_mesh(n: usize) -> Vec<Node> {
    let (txs, rxs): (Vec<Sender<Inbound>>, Vec<Receiver<Inbound>>) =
        (0..n).map(|_| channel()).unzip();
    rxs.into_iter()
        .enumerate()
        .map(|(me, rx)| {
            let chans = txs
                .iter()
                .enumerate()
                .map(|(dst, tx)| (dst != me).then(|| tx.clone()))
                .collect();
            Node::new(n, me, TxSide::Mem(chans), rx, None)
        })
        .collect()
}

/// `n` nodes over the localhost TCP mesh (ephemeral ports, in-process).
/// Each node's inbound links are serviced by its own reader threads,
/// joined when the node drops.
pub fn tcp_mesh(n: usize) -> Result<Vec<Node>, ClusterError> {
    Ok(tcp::localhost_mesh(n)?
        .into_iter()
        .enumerate()
        .map(|(me, ep)| Node::from_endpoint(n, me, ep))
        .collect())
}

/// Join an `n`-node **multi-process** mesh on fixed localhost ports as
/// node `me` (see [`crate::net::join_mesh`]).
pub fn join(n: usize, me: SiteId, base_port: u16) -> Result<Node, ClusterError> {
    Ok(Node::from_endpoint(
        n,
        me,
        tcp::join_mesh(n, me, base_port)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::bytes;
    use crate::Wire;

    #[derive(Debug, Clone, PartialEq)]
    struct Nums(Vec<u64>);

    impl Wire for Nums {
        fn wire_size(&self) -> usize {
            8 * self.0.len()
        }
    }

    impl FrameCodec for Nums {
        fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
            out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
            for v in &self.0 {
                out.extend_from_slice(&v.to_le_bytes());
            }
            4
        }

        fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
            let mut r = bytes::Reader::new(body);
            let n = r.u32()? as usize;
            let mut v = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                v.push(r.u64()?);
            }
            r.finish()?;
            Ok(Nums(v))
        }
    }

    fn exercise(mut nodes: Vec<Node>) {
        // Spawn every node on its own thread; node 0 is the hub.
        let n = nodes.len();
        let hub = nodes.remove(0);
        let workers: Vec<_> = nodes
            .into_iter()
            .map(|mut node| {
                std::thread::spawn(move || {
                    let (src, msg): (SiteId, Nums) = node.recv_msg().unwrap();
                    assert_eq!(src, 0);
                    let reply = Nums(msg.0.iter().map(|v| v * 2).collect());
                    node.send(0, &reply).unwrap();
                    node
                })
            })
            .collect();
        let hub = std::thread::spawn(move || {
            let mut hub = hub;
            for dst in 1..n {
                hub.send(dst, &Nums(vec![dst as u64, 7])).unwrap();
            }
            let mut got = Vec::new();
            for _ in 1..n {
                let (src, msg): (SiteId, Nums) = hub.recv_msg().unwrap();
                got.push((src, msg));
            }
            got.sort_by_key(|(s, _)| *s);
            assert_eq!(
                got,
                (1..n)
                    .map(|s| (s, Nums(vec![2 * s as u64, 14])))
                    .collect::<Vec<_>>()
            );
            hub
        })
        .join()
        .unwrap();

        // Meters merge to the whole-mesh picture.
        let mut stats = hub.stats().clone();
        let mut meter = hub.meter();
        for w in workers {
            let w = w.join().unwrap();
            stats.merge(w.stats());
            meter.merge(w.meter());
        }
        assert_eq!(stats.total_messages(), 2 * (n as u64 - 1));
        assert_eq!(stats.total_bytes(), 2 * (n as u64 - 1) * 16);
        assert_eq!(meter.frames, 2 * (n as u64 - 1));
        assert_eq!(
            meter.wire_bytes,
            meter.modeled_bytes + meter.structural_bytes - meter.saved_bytes
        );
        // Expected counters, computed from the messages sent: one frame
        // per send, modeled bytes = Σ wire_size, and on every link used
        // exactly one message of its payload's size.
        let sent: Vec<(SiteId, SiteId, Nums)> = (1..n)
            .flat_map(|s| {
                [
                    (0, s, Nums(vec![s as u64, 7])),
                    (s, 0, Nums(vec![2 * s as u64, 14])),
                ]
            })
            .collect();
        assert_eq!(meter.frames, sent.len() as u64);
        let modeled: usize = sent.iter().map(|(_, _, m)| m.wire_size()).sum();
        assert_eq!(meter.modeled_bytes, modeled as u64);
        assert_eq!(stats.total_bytes(), modeled as u64);
        for (src, dst, m) in &sent {
            let link = stats.pair(*src, *dst);
            assert_eq!((link.messages, link.bytes), (1, m.wire_size() as u64));
        }
        // Structural = per-frame header+method (5) + the u32 count (4);
        // nothing is compressed.
        assert_eq!(meter.structural_bytes, sent.len() as u64 * (5 + 4));
        assert_eq!(meter.saved_bytes, 0);
    }

    #[test]
    fn mem_mesh_round_trips_and_meters_each_send() {
        exercise(mem_mesh(4));
    }

    #[test]
    fn tcp_mesh_round_trips_and_meters_each_send() {
        exercise(tcp_mesh(4).unwrap());
    }

    #[test]
    fn ctrl_frames_are_wire_only() {
        /// A control frame: zero modeled size, all structure.
        #[derive(Debug, PartialEq)]
        struct Ack;
        impl Wire for Ack {
            fn wire_size(&self) -> usize {
                0
            }
        }
        impl FrameCodec for Ack {
            fn encode_frame(&self, out: &mut Vec<u8>) -> usize {
                out.push(0xAC);
                1
            }
            fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
                if body == [0xAC] {
                    Ok(Ack)
                } else {
                    Err(ClusterError::Transport("not an ack".into()))
                }
            }
        }
        let mut nodes = mem_mesh(2);
        let mut b = nodes.pop().unwrap();
        let mut a = nodes.pop().unwrap();
        a.send_ctrl(1, &Ack).unwrap();
        let (src, msg): (SiteId, Ack) = b.recv_msg().unwrap();
        assert_eq!((src, msg), (0, Ack));
        // No modeled |M|, no modeled messages — but real wire bytes and
        // the meter identity still holds.
        assert_eq!(a.stats().total_messages(), 0);
        assert_eq!(a.stats().total_bytes(), 0);
        assert_eq!(a.wire_stats().total_messages(), 1);
        let m = a.meter();
        assert_eq!(m.frames, 1);
        assert_eq!(m.wire_bytes, 5 + 1);
        assert_eq!(
            m.wire_bytes,
            m.modeled_bytes + m.structural_bytes - m.saved_bytes
        );
    }

    #[test]
    fn loopback_and_unknown_nodes_are_rejected() {
        let mut nodes = mem_mesh(2);
        let e = nodes[1].send(1, &Nums(vec![1])).unwrap_err();
        assert_eq!(e, ClusterError::Loopback(1));
        let e = nodes[0].send(9, &Nums(vec![1])).unwrap_err();
        assert!(matches!(e, ClusterError::UnknownSite(9)));
    }

    #[test]
    fn hung_up_peer_surfaces_as_transport_error() {
        let mut nodes = mem_mesh(2);
        let gone = nodes.pop().unwrap();
        drop(gone);
        let e = nodes[0].send(1, &Nums(vec![1])).unwrap_err();
        assert!(matches!(e, ClusterError::Transport(_)), "{e:?}");
    }
}
